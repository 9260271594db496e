package index

import (
	"fmt"
	"path"
	"strings"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/vfs"
)

// ApplyDiff implements the metadata half of the Gear commit path
// (§III-D2): it merges a container's writable-layer diff tree (with
// literal whiteout entries) into ix, producing the new image's index
// under newName:newTag. Regular files appearing in the diff become new
// Gear files: they are fingerprinted through reg and returned in
// newFiles for upload to the Gear Registry.
//
// The merge is tarstream.ApplyLayer — the rule a pull stacks layers by
// and the container's view answers by — over the index's placeholder
// tree, with each of the diff's files standing in as its placeholder.
// A file the diff did not write keeps its chunk table.
func ApplyDiff(ix *Index, newName, newTag string, diff *vfs.FS, reg *hashing.Registry) (*Index, map[hashing.Fingerprint][]byte, error) {
	if reg == nil {
		reg = hashing.NewRegistry(nil)
	}
	tree, err := ix.ToTree()
	if err != nil {
		return nil, nil, err
	}
	newFiles := make(map[hashing.Fingerprint][]byte)
	written := make(map[string]bool)
	layer := vfs.New()
	err = diff.Walk(func(p string, n *vfs.Node) error {
		switch n.Type() {
		case vfs.TypeDir:
			if err := layer.Mkdir(p, n.Mode()); err != nil {
				return err
			}
			if n.Opaque {
				layer.Lookup(p).Opaque = true
			}
			return nil
		case vfs.TypeSymlink:
			return layer.Symlink(n.Target(), p)
		case vfs.TypeRegular:
			data := n.Content().Data()
			if strings.HasPrefix(path.Base(p), tarstream.WhiteoutPrefix) {
				return layer.WriteFile(p, data, n.Mode()) // a whiteout or the opaque marker
			}
			fp := reg.Assign(data)
			newFiles[fp] = data
			written[p] = true
			return layer.WriteFile(p, Placeholder(fp, int64(len(data))), n.Mode())
		default:
			return fmt.Errorf("%w: diff node type %v at %s", ErrCorrupt, n.Type(), p)
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("index: apply diff: %w", err)
	}
	tarstream.ApplyLayer(tree, layer)
	out, err := FromTree(newName, newTag, ix.Config, tree)
	if err != nil {
		return nil, nil, err
	}
	// The placeholder tree's root is a fresh one, and a layer never
	// speaks of the root itself: it keeps the mode it had.
	out.Root.Mode = ix.Root.Mode
	if chunks := ix.ChunkMap(); len(chunks) > 0 {
		keepChunks(out.Root, "", chunks, written)
	}
	return out, newFiles, nil
}

// keepChunks gives each regular file below the directory e, which is at
// dir ("" for the root), that the diff did not write the chunk table of
// its content.
func keepChunks(e *Entry, dir string, chunks map[hashing.Fingerprint][]Chunk, written map[string]bool) {
	for _, c := range e.Children {
		p := dir + "/" + c.Name
		switch c.Type {
		case vfs.TypeDir:
			keepChunks(c, p, chunks, written)
		case vfs.TypeRegular:
			if !written[p] {
				c.Chunks = chunks[c.Fingerprint]
			}
		}
	}
}

package convert

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/vfs"
)

// table holds the one copy of every file content of the image the
// converter converted last, and of the images it is converting now, keyed
// by the content's strong verifier — not its fingerprint, which a weak
// hasher may give to two contents. Layers are unpacked through a use's
// keep: a file is hashed where its bytes stream by, and only a content the
// table does not hold is fingerprinted and given memory, so converting
// the next version of an image hashes and allocates what that version
// added. The sum goes on to the index builder through known, which is why
// no file is hashed twice.
//
// Only the last image is held once its conversion ends: a Converter that
// converts a thousand images holds one image's contents, not the union of
// a thousand. The Results it returned keep their own contents for as long
// as their callers keep them.
//
// The table also remembers, by Digest, each layer the last image and the
// conversions in flight unpacked (a layerRecord), for as long as it holds
// every content the record names: a conversion that meets such a layer
// again clones its diff tree from the record, over the held contents, and
// neither inflates nor hashes it.
type table struct {
	reg *hashing.Registry

	// mu guards the maps, the lists and every held's and record's
	// bookkeeping: keep runs on the unpacking goroutines of every
	// conversion in flight (the reader and the one keeping a big file
	// beside it), the rest on the converting goroutines.
	mu         sync.Mutex
	byVerifier map[hashing.Verifier]*held
	byData     map[*byte]*held // by first byte: how known finds what a tree holds
	empty      *held           // the empty content has no first byte
	last       []*held         // the last result's contents, each once

	memo     map[hashing.Digest]*layerRecord
	lastRecs []*layerRecord // the records of the last result's layers

	uses atomic.Uint64 // conversions begun, so each use has an id

	// summed is signalled, under mu, whenever a content's fingerprint
	// is in: a keep that finds the content being fingerprinted waits for
	// it, so each content is fingerprinted once however many keeps meet
	// it at once.
	summed sync.Cond
}

// held is one content and its sum.
type held struct {
	data []byte
	sum  hashing.Sum
	// summing says a keep is fingerprinting the content: data and sum
	// are not in yet, and no other keep is to compute them again.
	summing bool
	// Pinned by the keeps of conversions in flight that answered with
	// this content, or in the last result, it is held; else it is
	// dropped.
	pinning
}

// pinning is how a content or a layer record is held: pins counts the
// conversions in flight that use it, pinner is the id of the one that
// pinned it last (so a conversion pins what it meets again only when
// another pinned it in between), and inLast says the last result uses
// it.
type pinning struct {
	pins   int
	pinner uint64
	inLast bool
}

// pinBy pins p for the use with id, and reports whether that is new.
func (p *pinning) pinBy(id uint64) bool {
	if p.pinner == id {
		return false
	}
	p.pins++
	p.pinner = id
	return true
}

// layerRecord is what the table keeps of a layer a conversion unpacked:
// its diff tree, never applied, whose regular files hold the contents the
// table holds, and those contents. It holds no bytes of its own, and is
// pinned by the conversions that use the layer.
type layerRecord struct {
	pinning
	digest hashing.Digest
	tree   *vfs.FS
	held   []*held
}

// use is one conversion's hold on the table: what its keeps pinned, what
// its final tree holds, and the records of the layers it unpacked or
// cloned from the table.
type use struct {
	t       *table
	id      uint64
	pinned  []*held
	tree    []*held
	records []*layerRecord
}

func newTable(reg *hashing.Registry) *table {
	t := &table{reg: reg, byVerifier: make(map[hashing.Verifier]*held), byData: make(map[*byte]*held),
		memo: make(map[hashing.Digest]*layerRecord)}
	t.summed.L = &t.mu
	return t
}

// begin starts a conversion's use of the table.
func (t *table) begin() *use { return &use{t: t, id: t.uses.Add(1)} }

// keep implements tarstream.Keep, pinning the content it answers with
// until the conversion settles. A content is looked up by its verifier,
// and only one the table does not hold is fingerprinted, by the first
// keep to meet it: a held content reuses its sum, which is a pure
// function of the bytes, and one being fingerprinted is waited for.
func (u *use) keep(content []byte, borrowed bool) []byte {
	t := u.t
	v := hashing.VerifierOf(content)
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.byVerifier[v]
	if h == nil {
		// Fingerprint and copy without the lock, the content marked as
		// being fingerprinted.
		h = &held{summing: true}
		t.byVerifier[v] = h
		t.mu.Unlock()
		sum := t.reg.SumVerified(content, v)
		if borrowed {
			content = bytes.Clone(content)
		}
		t.mu.Lock()
		h.data, h.sum, h.summing = content, sum, false
		if len(content) > 0 {
			t.byData[&content[0]] = h
		} else {
			t.empty = h
		}
		t.summed.Broadcast()
	}
	for h.summing {
		t.summed.Wait()
	}
	u.pin(h)
	return h.data
}

// pin holds h until the conversion settles.
func (u *use) pin(h *held) {
	if h.pinBy(u.id) {
		u.pinned = append(u.pinned, h)
	}
}

// pinRecord holds r until the conversion settles.
func (u *use) pinRecord(r *layerRecord) {
	if r.pinBy(u.id) {
		u.records = append(u.records, r)
	}
}

// recall returns the diff tree of the layer whose Digest is d, cloned
// from its record, or nil if the table has no record of it or no longer
// holds every content the record names. It pins the record and its
// contents as keep does, so the tree's contents are found by known. The
// caller must have checked that the layer's tarball has Digest d.
func (u *use) recall(d hashing.Digest) *vfs.FS {
	t := u.t
	t.mu.Lock()
	r := t.memo[d]
	if r != nil && r.stale() {
		t.forget(r)
		r = nil
	}
	if r == nil {
		t.mu.Unlock()
		return nil
	}
	u.pinRecord(r)
	for _, h := range r.held {
		u.pin(h)
	}
	t.mu.Unlock()
	return r.tree.Clone()
}

// remember records the layer whose Digest is d, which the conversion
// unpacked into tree through keep, unless the table has a record of it
// already (another conversion unpacked it at the same time): then the
// conversion holds that one. It must be called before ApplyLayer spends
// the tree.
func (u *use) remember(d hashing.Digest, tree *vfs.FS) {
	r := &layerRecord{digest: d, tree: tree.Clone()}
	t := u.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if old := t.memo[d]; old != nil {
		r = old
	} else if !t.heldBelow(tree.Root(), &r.held) {
		return
	} else {
		t.memo[d] = r
	}
	u.pinRecord(r)
}

// heldBelow appends to held what the table holds for each regular file
// below the directory n, and reports whether it holds them all.
func (t *table) heldBelow(n *vfs.Node, held *[]*held) bool {
	for _, name := range n.ChildNames() {
		c := n.Child(name)
		if c.IsDir() && !t.heldBelow(c, held) {
			return false
		} else if c.Type() == vfs.TypeRegular {
			h := t.holding(c.Content().Data())
			if h == nil {
				return false
			}
			*held = append(*held, h)
		}
	}
	return true
}

// holding returns what the table holds at the slice data keep returned,
// or nil.
func (t *table) holding(data []byte) *held {
	h := t.empty
	if len(data) > 0 {
		h = t.byData[&data[0]]
	}
	// A chunk of a file starts where the file does: the length tells
	// them apart.
	if h == nil || len(h.data) != len(data) {
		return nil
	}
	return h
}

// stale reports whether the table dropped a content r names. A dropped
// content is pinned again only through a record, so neither pinned nor
// in the last result, it is gone for good.
func (r *layerRecord) stale() bool {
	for _, h := range r.held {
		if h.pins == 0 && !h.inLast {
			return true
		}
	}
	return false
}

// forget drops r from the memo.
func (t *table) forget(r *layerRecord) {
	if t.memo[r.digest] == r {
		delete(t.memo, r.digest)
	}
	r.inLast = false
}

// known implements index.Known for the slices keep returned, and notes
// that the content is in the tree being indexed.
func (u *use) known(data []byte) (hashing.Sum, bool) {
	t := u.t
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.holding(data)
	if h == nil {
		return hashing.Sum{}, false
	}
	u.tree = append(u.tree, h)
	return h.sum, true
}

// settle ends a conversion. One that succeeded becomes the last result:
// what its final tree holds is kept, and what only the result before held
// is dropped. Then the conversion lets go of what it pinned, and what no
// conversion pins and the last result does not hold is dropped: what a
// lower layer held and an upper layer replaced or whited out, and all
// that a failed conversion added. So with no conversion in flight the
// table holds exactly the last result's contents. Nothing is allocated:
// the new last result's list is its tree list, made unique in place.
//
// Layer records go the same way, after the contents: the last result's
// are kept while the table holds every content they name, and what no
// conversion pins and the last result did not use is forgotten. So with
// no conversion in flight the memo holds the last result's layers, or
// fewer.
func (u *use) settle(ok bool) {
	t := u.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok {
		before := t.last
		for _, h := range before {
			h.inLast = false
		}
		last := u.tree[:0]
		for _, h := range u.tree {
			if !h.inLast {
				h.inLast = true
				last = append(last, h)
			}
		}
		for _, h := range before {
			t.dropIfFree(h)
		}
		t.last = last
	}
	for _, h := range u.pinned {
		h.pins--
		t.dropIfFree(h)
	}

	if ok {
		for _, r := range t.lastRecs {
			r.inLast = false
		}
		for _, r := range u.records {
			r.inLast = true
		}
		for _, r := range t.lastRecs {
			t.forgetIfFree(r)
		}
	}
	for _, r := range u.records {
		r.pins--
		t.forgetIfFree(r)
	}
	if ok {
		t.lastRecs = slices.DeleteFunc(u.records, func(r *layerRecord) bool { return !r.inLast })
	}
}

// forgetIfFree forgets r when no conversion pins it and the last result
// did not use it, or when the table dropped a content it names.
func (t *table) forgetIfFree(r *layerRecord) {
	if r.pins == 0 && (!r.inLast || r.stale()) {
		t.forget(r)
	}
}

// dropIfFree drops h when no conversion pins it and the last result does
// not hold it. Then no list reaches it again, so it is dropped once: the
// last result's list holds an entry once, and a conversion unpins it as
// often as it pinned it.
func (t *table) dropIfFree(h *held) {
	if h.pins > 0 || h.inLast {
		return
	}
	delete(t.byVerifier, h.sum.Verifier())
	if len(h.data) > 0 {
		delete(t.byData, &h.data[0])
	} else {
		t.empty = nil
	}
}

package convert

import (
	"bytes"
	"sync"

	"github.com/gear-image/gear/internal/hashing"
)

// table holds the one copy of every file content the converter's
// results reference, keyed by the content's strong verifier — not its
// fingerprint, which a weak hasher may give to two contents. Layers are
// unpacked through keep: a file is hashed where its bytes stream by, and
// only a content the table has never seen is given memory, so converting
// the next version of an image allocates what that version added. The
// sum computed there goes on to the index builder through known, which
// is why no file is hashed twice.
type table struct {
	reg *hashing.Registry

	// mu guards the maps for keep, which the unpack workers call at
	// once. known and settle run on the converting goroutine while no
	// layer is being unpacked, under the Converter's lock.
	mu         sync.Mutex
	byVerifier map[hashing.Verifier]*held
	byData     map[*byte]*held // by first byte: how known finds what the tree holds
	empty      *held           // the empty content has no first byte
	fresh      []*held         // added by the conversion in progress
}

// held is one content and its sum.
type held struct {
	data []byte
	sum  hashing.Sum
	// used says the content is in a finished conversion's final tree:
	// a Result references it.
	used bool
}

func newTable(reg *hashing.Registry) *table {
	return &table{reg: reg, byVerifier: make(map[hashing.Verifier]*held), byData: make(map[*byte]*held)}
}

// keep implements tarstream.Keep.
func (t *table) keep(content []byte, borrowed bool) []byte {
	sum := t.reg.Sum(content)
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.byVerifier[sum.Verifier()]; h != nil {
		return h.data
	}
	if borrowed {
		content = bytes.Clone(content)
	}
	h := &held{data: content, sum: sum}
	t.byVerifier[sum.Verifier()] = h
	if len(content) > 0 {
		t.byData[&content[0]] = h
	} else {
		t.empty = h
	}
	t.fresh = append(t.fresh, h)
	return content
}

// known implements index.Known for the slices keep returned, and notes
// that the content is in the tree being indexed.
func (t *table) known(data []byte) (hashing.Sum, bool) {
	h := t.empty
	if len(data) > 0 {
		h = t.byData[&data[0]]
	}
	// A chunk of a file starts where the file does: the length tells
	// them apart.
	if h == nil || len(h.data) != len(data) {
		return hashing.Sum{}, false
	}
	h.used = true
	return h.sum, true
}

// settle ends a conversion: what it added and no final tree ended up
// holding — a lower-layer file an upper layer replaced or whited out, or
// everything, if the conversion failed — is dropped, so the table holds
// exactly the contents of the results.
func (t *table) settle() {
	for _, h := range t.fresh {
		if h.used {
			continue
		}
		delete(t.byVerifier, h.sum.Verifier())
		if len(h.data) > 0 {
			delete(t.byData, &h.data[0])
		} else {
			t.empty = nil
		}
	}
	clear(t.fresh)
	t.fresh = t.fresh[:0]
}

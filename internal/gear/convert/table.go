package convert

import (
	"bytes"
	"sync"

	"github.com/gear-image/gear/internal/hashing"
)

// table holds the one copy of every file content of the image the
// converter converted last, keyed by the content's strong verifier — not
// its fingerprint, which a weak hasher may give to two contents. Layers
// are unpacked through keep: a file is hashed where its bytes stream by,
// and only a content the table does not hold is given memory, so
// converting the next version of an image allocates what that version
// added. The sum computed there goes on to the index builder through
// known, which is why no file is hashed twice.
//
// Only the last image is held: a Converter that converts a thousand
// images holds one image's contents, not the union of a thousand. The
// Results it returned keep their own contents for as long as their
// callers keep them.
type table struct {
	reg *hashing.Registry

	// mu guards the maps for keep, which the unpack workers call at
	// once. known and settle run on the converting goroutine while no
	// layer is being unpacked, under the Converter's lock.
	mu         sync.Mutex
	byVerifier map[hashing.Verifier]*held
	byData     map[*byte]*held // by first byte: how known finds what the tree holds
	empty      *held           // the empty content has no first byte
}

// held is one content and its sum.
type held struct {
	data []byte
	sum  hashing.Sum
	// fresh says the conversion in progress added the content; used says
	// its final tree holds it.
	fresh, used bool
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
	h := &held{data: content, sum: sum, fresh: true}
	t.byVerifier[sum.Verifier()] = h
	if len(content) > 0 {
		t.byData[&content[0]] = h
	} else {
		t.empty = h
	}
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

// settle ends a conversion. After one that succeeded the table holds
// exactly its result's contents: what the image before held and this one
// does not, and what a lower layer held and an upper layer replaced or
// whited out, are dropped. After one that failed it drops what the
// conversion added and still holds the last result's contents.
func (t *table) settle(ok bool) {
	for v, h := range t.byVerifier {
		if ok && h.used || !ok && !h.fresh {
			h.fresh, h.used = false, false
			continue
		}
		delete(t.byVerifier, v)
		if len(h.data) > 0 {
			delete(t.byData, &h.data[0])
		} else {
			t.empty = nil
		}
	}
}

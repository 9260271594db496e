package convert

import (
	"bytes"
	"sync"
	"sync/atomic"

	"github.com/gear-image/gear/internal/hashing"
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
type table struct {
	reg *hashing.Registry

	// mu guards the maps, last and every held's bookkeeping: keep runs
	// on the unpacking goroutines of every conversion in flight (the
	// reader and the one keeping a big file beside it), known and settle
	// on the converting goroutines.
	mu         sync.Mutex
	byVerifier map[hashing.Verifier]*held
	byData     map[*byte]*held // by first byte: how known finds what a tree holds
	empty      *held           // the empty content has no first byte
	last       []*held         // the last result's contents, each once

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
	// pins counts the keeps of conversions in flight that answered with
	// this content, pinner is the id of the one that pinned it last (so
	// a conversion pins a content it meets again only when another pinned
	// it in between), and inLast says the last result holds it. Neither
	// pinned nor in the last result, it is dropped.
	pins   int
	pinner uint64
	inLast bool
}

// use is one conversion's hold on the table: what its keeps pinned, and
// what its final tree holds.
type use struct {
	t      *table
	id     uint64
	pinned []*held
	tree   []*held
}

func newTable(reg *hashing.Registry) *table {
	t := &table{reg: reg, byVerifier: make(map[hashing.Verifier]*held), byData: make(map[*byte]*held)}
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
	if h.pinner != u.id {
		h.pins++
		h.pinner = u.id
		u.pinned = append(u.pinned, h)
	}
	return h.data
}

// known implements index.Known for the slices keep returned, and notes
// that the content is in the tree being indexed.
func (u *use) known(data []byte) (hashing.Sum, bool) {
	t := u.t
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.empty
	if len(data) > 0 {
		h = t.byData[&data[0]]
	}
	// A chunk of a file starts where the file does: the length tells
	// them apart.
	if h == nil || len(h.data) != len(data) {
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

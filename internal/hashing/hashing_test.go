package hashing

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestFingerprintBytesKnownValue(t *testing.T) {
	// md5("") and md5("abc") are well-known vectors.
	tests := []struct {
		in   string
		want Fingerprint
	}{
		{"", "d41d8cd98f00b204e9800998ecf8427e"},
		{"abc", "900150983cd24fb0d6963f7d28e17f72"},
	}
	for _, tt := range tests {
		if got := FingerprintBytes([]byte(tt.in)); got != tt.want {
			t.Errorf("FingerprintBytes(%q) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestDigestBytesKnownValue(t *testing.T) {
	want := Digest("sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
	if got := DigestBytes([]byte("abc")); got != want {
		t.Errorf("DigestBytes(abc) = %s, want %s", got, want)
	}
}

func TestDigestWriterMatchesDigestBytes(t *testing.T) {
	w := NewDigestWriter()
	if got, want := w.Digest(), DigestBytes(nil); got != want {
		t.Errorf("empty DigestWriter = %s, want %s", got, want)
	}
	for _, piece := range []string{"a", "", "bc"} {
		if n, err := w.Write([]byte(piece)); n != len(piece) || err != nil {
			t.Fatalf("Write(%q) = %d, %v", piece, n, err)
		}
	}
	if got, want := w.Digest(), DigestBytes([]byte("abc")); got != want {
		t.Errorf("DigestWriter of a, bc = %s, want %s", got, want)
	}
}

func TestFingerprintValid(t *testing.T) {
	tests := []struct {
		fp   Fingerprint
		want bool
	}{
		{"d41d8cd98f00b204e9800998ecf8427e", true},
		{"d41d8cd98f00b204e9800998ecf8427e-c1", true},
		{"d41d8cd98f00b204e9800998ecf8427e-c42", true},
		{"", false},
		{"short", false},
		{"D41D8CD98F00B204E9800998ECF8427E", false}, // uppercase rejected
		{"d41d8cd98f00b204e9800998ecf8427g", false}, // non-hex
		{"d41d8cd98f00b204e9800998ecf8427e-x1", false},
		{"d41d8cd98f00b204e9800998ecf8427e-c", false},
		{"d41d8cd98f00b204e9800998ecf8427e-cx", false},
		{"zzzz8cd98f00b204e9800998ecf8427e-c1", false},
	}
	for _, tt := range tests {
		if got := tt.fp.Valid(); got != tt.want {
			t.Errorf("Valid(%q) = %v, want %v", tt.fp, got, tt.want)
		}
		err := tt.fp.Validate()
		if (err == nil) != tt.want {
			t.Errorf("Validate(%q) = %v", tt.fp, err)
		}
	}
}

func TestDigestValid(t *testing.T) {
	ok := DigestBytes([]byte("x"))
	if !ok.Valid() {
		t.Errorf("real digest invalid: %s", ok)
	}
	bad := []Digest{
		"",
		"sha256:",
		"sha256:abcd",
		Digest("md5:" + strings.Repeat("a", 64)),
		Digest("sha256:" + strings.Repeat("A", 64)),
		Digest("sha256:" + strings.Repeat("a", 63) + "g"),
	}
	for _, d := range bad {
		if d.Valid() {
			t.Errorf("Valid(%q) = true, want false", d)
		}
		if d.Validate() == nil {
			t.Errorf("Validate(%q) = nil", d)
		}
	}
}

func TestRegistryDeduplicates(t *testing.T) {
	r := NewRegistry(nil)
	a1 := r.Assign([]byte("same"))
	a2 := r.Assign([]byte("same"))
	b := r.Assign([]byte("different"))
	if a1 != a2 {
		t.Errorf("identical content got different IDs: %s vs %s", a1, a2)
	}
	if a1 == b {
		t.Error("distinct content shares an ID")
	}
	if r.Collisions() != 0 {
		t.Errorf("collisions = %d, want 0", r.Collisions())
	}
}

// weakHasher maps every input to one of two fingerprints, guaranteeing
// collisions, to exercise the fallback path.
type weakHasher struct{}

func (weakHasher) Fingerprint(data []byte) Fingerprint {
	if len(data)%2 == 0 {
		return Fingerprint(strings.Repeat("0", 32))
	}
	return Fingerprint(strings.Repeat("1", 32))
}

func TestRegistryCollisionFallback(t *testing.T) {
	r := NewRegistry(weakHasher{})
	a := r.Assign([]byte("aa")) // even length -> fp 000...
	b := r.Assign([]byte("bb")) // even length -> same fp, different bytes
	c := r.Assign([]byte("aa")) // duplicate of a
	if a == b {
		t.Error("collision produced identical IDs")
	}
	if a != c {
		t.Errorf("duplicate content got a new ID: %s vs %s", a, c)
	}
	if !b.Valid() {
		t.Errorf("fallback ID %q is not Valid", b)
	}
	if r.Collisions() != 1 {
		t.Errorf("collisions = %d, want 1", r.Collisions())
	}
	d := r.Assign([]byte("cc"))
	if d == a || d == b {
		t.Error("third colliding content reused an ID")
	}
	if r.Collisions() != 2 {
		t.Errorf("collisions = %d, want 2", r.Collisions())
	}
}

// Property: under any hasher, Assign is injective on contents and stable
// under repetition.
func TestRegistryInjectiveProperty(t *testing.T) {
	for _, h := range []Hasher{nil, weakHasher{}} {
		r := NewRegistry(h)
		ids := make(map[Fingerprint]string)
		prop := func(data []byte) bool {
			id := r.Assign(data)
			if id != r.Assign(data) {
				return false
			}
			if prev, ok := ids[id]; ok {
				return prev == string(data)
			}
			ids[id] = string(data)
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("hasher %T: %v", h, err)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(weakHasher{})
	const workers = 8
	var wg sync.WaitGroup
	results := make([][]Fingerprint, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				data := []byte(fmt.Sprintf("content-%d", i))
				results[w] = append(results[w], r.Assign(data))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d assigned %s for item %d; worker 0 assigned %s",
					w, results[w][i], i, results[0][i])
			}
		}
	}
}

func TestCollisionProbability(t *testing.T) {
	// Paper: n = 5e10 files, 128-bit MD5 -> p ~= 5e-18.
	p := CollisionProbability(5e10, 128)
	if p < 1e-18 || p > 1e-17 {
		t.Errorf("CollisionProbability(5e10, 128) = %g, want ~5e-18", p)
	}
	if got := CollisionProbability(1, 128); got != 0 {
		t.Errorf("one file should have zero collision probability, got %g", got)
	}
}

// assignAll addresses a batch the way index.BuildKnown does: SumAll,
// then AssignSums, on the same workers.
func assignAll(r *Registry, items [][]byte, workers int) []Fingerprint {
	return r.AssignSums(r.SumAll(items, workers), workers)
}

// A batch must be addressed indistinguishably from serial Assign calls
// for any worker count — including the "-cN" collision IDs, which depend
// on assignment order.
func TestAssignAllMatchesSerial(t *testing.T) {
	var items [][]byte
	for i := 0; i < 64; i++ {
		// A mix of duplicates and weakHasher collisions.
		items = append(items, []byte(strings.Repeat("x", i%7)+fmt.Sprint(i%9)))
	}
	for _, hasher := range []Hasher{nil, weakHasher{}} {
		serial := NewRegistry(hasher)
		want := make([]Fingerprint, len(items))
		for i, data := range items {
			want[i] = serial.Assign(data)
		}
		for _, workers := range []int{0, 1, 2, 3, 8, 100} {
			r := NewRegistry(hasher)
			got := assignAll(r, items, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("hasher %T workers %d: item %d = %s, want %s",
						hasher, workers, i, got[i], want[i])
				}
			}
			if r.Collisions() != serial.Collisions() {
				t.Errorf("hasher %T workers %d: collisions = %d, want %d",
					hasher, workers, r.Collisions(), serial.Collisions())
			}
		}
	}
	if out := assignAll(NewRegistry(nil), nil, 4); len(out) != 0 {
		t.Errorf("empty assignAll returned %v", out)
	}
}

// Concurrent batch and single Assign calls on one registry must be
// race-free and keep the injectivity invariant.
func TestAssignAllConcurrent(t *testing.T) {
	r := NewRegistry(weakHasher{})
	var items [][]byte
	for i := 0; i < 32; i++ {
		items = append(items, []byte(fmt.Sprintf("payload %d", i%11)))
	}
	var wg sync.WaitGroup
	results := make([][]Fingerprint, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = assignAll(r, items, 4)
		}(g)
	}
	wg.Wait()
	// Identical inputs always resolve to identical IDs, regardless of
	// which goroutine assigned first.
	for g := 1; g < 8; g++ {
		for i := range items {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d item %d = %s, want %s", g, i, results[g][i], results[0][i])
			}
		}
	}
}

// A content hashed once (Sum) and assigned later, or many times,
// without its bytes (AssignSum) gets the address Assign gives it, under
// the real hasher and a colliding one; distinct contents have distinct
// verifiers even when they share a fingerprint.
func TestAssignSumMatchesAssign(t *testing.T) {
	items := [][]byte{[]byte("aa"), []byte("bb"), []byte("aa"), []byte("c"), {}, []byte("dddd"), []byte("bb")}
	for _, h := range []Hasher{nil, weakHasher{}} {
		byBytes, bySum := NewRegistry(h), NewRegistry(h)
		sums := bySum.SumAll(items, 3)
		for i, data := range items {
			if sums[i] != bySum.Sum(data) {
				t.Fatalf("SumAll[%d] differs from Sum", i)
			}
			want := byBytes.Assign(data)
			if got := bySum.AssignSum(sums[i]); got != want {
				t.Errorf("AssignSum(%q) = %s, Assign = %s", data, got, want)
			}
			if again := bySum.AssignSum(sums[i]); again != want {
				t.Errorf("AssignSum(%q) a second time = %s, want %s", data, again, want)
			}
		}
		if bySum.Collisions() != byBytes.Collisions() || bySum.Entries() != byBytes.Entries() {
			t.Errorf("collisions %d entries %d, by bytes %d and %d",
				bySum.Collisions(), bySum.Entries(), byBytes.Collisions(), byBytes.Entries())
		}
		if sums[0].Verifier() != sums[2].Verifier() || sums[0].Verifier() == sums[1].Verifier() {
			t.Error("verifiers do not tell equal contents from distinct ones")
		}
	}
}

func TestFingerprintWriter(t *testing.T) {
	data := []byte(strings.Repeat("streamed content ", 1000))
	w := NewFingerprintWriter()
	for _, piece := range [][]byte{data[:1], data[1:4096], data[4096:]} {
		if n, err := w.Write(piece); n != len(piece) || err != nil {
			t.Fatal(n, err)
		}
	}
	if got := w.Fingerprint(); got != FingerprintBytes(data) {
		t.Errorf("streamed fingerprint %s, FingerprintBytes %s", got, FingerprintBytes(data))
	}
	if got := NewFingerprintWriter().Fingerprint(); got != FingerprintBytes(nil) {
		t.Errorf("empty fingerprint %s", got)
	}
}

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
	if n := fallbacks(a1, b); n != 0 {
		t.Errorf("%d collision fallback IDs, want 0", n)
	}
}

// fallbacks counts the distinct collision fallback IDs ("<fp>-cN") among
// ids.
func fallbacks(ids ...Fingerprint) int {
	seen := make(map[Fingerprint]bool)
	for _, id := range ids {
		if strings.Contains(string(id), "-c") {
			seen[id] = true
		}
	}
	return len(seen)
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
	if n := fallbacks(a, b, c); n != 1 {
		t.Errorf("%d collision fallback IDs, want 1", n)
	}
	d := r.Assign([]byte("cc"))
	if d == a || d == b {
		t.Error("third colliding content reused an ID")
	}
	if n := fallbacks(a, b, c, d); n != 2 {
		t.Errorf("%d collision fallback IDs, want 2", n)
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

// A content hashed once (Sum) and assigned later, or many times,
// without its bytes (AssignSum) gets the address Assign gives it, under
// the real hasher and a colliding one; distinct contents have distinct
// verifiers even when they share a fingerprint.
func TestAssignSumMatchesAssign(t *testing.T) {
	items := [][]byte{[]byte("aa"), []byte("bb"), []byte("aa"), []byte("c"), {}, []byte("dddd"), []byte("bb")}
	for _, h := range []Hasher{nil, weakHasher{}} {
		byBytes, bySum := NewRegistry(h), NewRegistry(h)
		var gotIDs, wantIDs []Fingerprint
		sums := bySum.SumAll(items)
		for i, data := range items {
			if sums[i] != bySum.Sum(data) {
				t.Fatalf("SumAll[%d] differs from Sum", i)
			}
			want := byBytes.Assign(data)
			got := bySum.AssignSum(sums[i])
			gotIDs, wantIDs = append(gotIDs, got), append(wantIDs, want)
			if got != want {
				t.Errorf("AssignSum(%q) = %s, Assign = %s", data, got, want)
			}
			if again := bySum.AssignSum(sums[i]); again != want {
				t.Errorf("AssignSum(%q) a second time = %s, want %s", data, again, want)
			}
		}
		if fallbacks(gotIDs...) != fallbacks(wantIDs...) || entries(bySum) != entries(byBytes) {
			t.Errorf("collisions %d entries %d, by bytes %d and %d",
				fallbacks(gotIDs...), entries(bySum), fallbacks(wantIDs...), entries(byBytes))
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

// FingerprintedBytes counts every byte FingerprintBytes and a
// FingerprintWriter hash, once, and the count costs a write nothing.
func TestFingerprintedBytes(t *testing.T) {
	data := []byte(strings.Repeat("metered content ", 512))
	before := FingerprintedBytes()
	FingerprintBytes(data)
	w := NewFingerprintWriter()
	w.Write(data[:100])
	w.Write(data[100:])
	w.Fingerprint()
	if got, want := FingerprintedBytes()-before, int64(2*len(data)); got != want {
		t.Errorf("fingerprinted %d bytes, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { w.Write(data) }); allocs != 0 {
		t.Errorf("a metered write allocates %v times, want 0", allocs)
	}
}

// Matches is FingerprintBytes compared, metered the same, and allocates
// nothing.
func TestFingerprintMatches(t *testing.T) {
	data := []byte(strings.Repeat("verified content ", 512))
	fp := FingerprintBytes(data)
	other := FingerprintBytes(data[1:])
	before := FingerprintedBytes()
	if !fp.Matches(data) || other.Matches(data) || fp.Matches(data[1:]) || fp[:31].Matches(data) {
		t.Error("Matches disagrees with FingerprintBytes")
	}
	if got, want := FingerprintedBytes()-before, int64(4*len(data)-1); got != want {
		t.Errorf("Matches fingerprinted %d bytes, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { fp.Matches(data) }); allocs != 0 {
		t.Errorf("Matches allocates %v times, want 0", allocs)
	}
}

// entries is how many distinct contents r has assigned addresses to.
func entries(r *Registry) int {
	total := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for _, seen := range s.byFP {
			total += len(seen)
		}
		s.mu.Unlock()
	}
	return total
}

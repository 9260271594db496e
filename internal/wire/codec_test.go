package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
)

// The line codec as it was before it walked its bodies: split the body
// into strings, split each line into fields, grow the results. It is the
// oracle the walking codec is held to.

func oracleLines(body []byte) []string {
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out
}

func oracleList(body []byte) []hashing.Fingerprint {
	lines := oracleLines(body)
	fps := make([]hashing.Fingerprint, len(lines))
	for i, line := range lines {
		fps[i] = hashing.Fingerprint(line)
	}
	return fps
}

func oracleParseVerdicts(body []byte) (fps []hashing.Fingerprint, present []bool, err error) {
	for _, line := range oracleLines(body) {
		fp, rest, err := Record(line, 1)
		if err != nil {
			return nil, nil, err
		}
		if rest[0] != "present" && rest[0] != "absent" {
			return nil, nil, fmt.Errorf("line %q: bad verdict", line)
		}
		fps = append(fps, fp)
		present = append(present, rest[0] == "present")
	}
	return fps, present, nil
}

// A body without a line is no list at all: callers tell "nothing" from
// "an empty list" by it (the registry's manifest listing does).
func TestLinesOfNoLinesIsNil(t *testing.T) {
	for _, body := range [][]byte{nil, {}, []byte("\n\n"), []byte(" \r\n\t\n")} {
		if got := Lines(body); got != nil {
			t.Errorf("Lines(%q) = %#v, want nil", body, got)
		}
		if fps, present, err := ParseVerdicts(body); fps != nil || present != nil || err != nil {
			t.Errorf("ParseVerdicts(%q) = %#v, %#v, %v, want nothing", body, fps, present, err)
		}
		if got := List(body); got == nil || len(got) != 0 {
			t.Errorf("List(%q) = %#v, want an empty list", body, got)
		}
	}
}

// The framers write what they wrote when they grew as they went, after
// whatever the caller had.
func TestAppendersFrameAsBefore(t *testing.T) {
	fps := []hashing.Fingerprint{"d41d8cd98f00b204e9800998ecf8427e", "d41d8cd98f00b204e9800998ecf8427e-c2", ""}
	if got, want := string(AppendList([]byte("id\n"), fps)), "id\n"+string(fps[0])+"\n"+string(fps[1])+"\n\n"; got != want {
		t.Errorf("AppendList = %q, want %q", got, want)
	}
	got := string(AppendVerdicts(nil, fps, []bool{true, false, true}))
	if want := string(fps[0]) + " present\n" + string(fps[1]) + " absent\n present\n"; got != want {
		t.Errorf("AppendVerdicts = %q, want %q", got, want)
	}
	if AppendList(nil, nil) != nil || AppendVerdicts(nil, nil, nil) != nil {
		t.Error("framing nothing onto nothing allocated")
	}
}

// goldenBodies are the request and reply bodies of the five wire goldens.
func goldenBodies(t testing.TB) [][]byte {
	files, err := filepath.Glob("testdata/*.golden")
	if err != nil || len(files) != 5 {
		t.Fatalf("%d wire goldens (%v), want 5", len(files), err)
	}
	var bodies [][]byte
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, `> "`) && !strings.HasPrefix(line, `< "`) {
				continue
			}
			body, err := strconv.Unquote(line[2:])
			if err != nil {
				t.Fatalf("%s: %q: %v", file, line, err)
			}
			bodies = append(bodies, []byte(body))
		}
	}
	return bodies
}

// retiredGoldenBodies are the bodies the goldens recorded for exchanges
// that are gone, request then reply for each. First the retired
// shard-routing protocol's, with the "gear-shard <shard> <verb> <n>"
// line that opened a frame stripped: the lists, verdicts and object
// frames that protocol handed this codec, and the replies that refused
// them. Then the tracker's GET /peer/stats, whose counters /peer/metrics
// serves.
func retiredGoldenBodies() []string {
	const a, missing, b = "71ced836a7e8b0e4a6dc9b21096a225a", "058a85a58c16a6c4c628fa58b18ffbbe", "987bcab01b929eb2c07877b224215c92"
	alpha := "alpha: " + strings.Repeat("gear file content ", 8)
	return []string{
		a + "\n" + missing + "\n" + b + "\n", a + " present\n" + missing + " absent\n" + b + " present\n",
		"", "",
		b + "\n" + a + "\n", b + " 4 raw\nbeta" + a + " 151 raw\n" + alpha,
		a + "\n" + missing + "\n", "gearregistry: batch: " + missing + ": gear file not found\n",
		a + "\n", "shardreg: shard \"ghost\": unknown shard\n",
		a + "\n", "shardreg: shard shard00: shard down\n",
		"not a frame", "shardreg: missing header: malformed shard frame\n",
		"wrong-magic shard00 query 0\n", "shardreg: bad header \"wrong-magic shard00 query 0\": malformed shard frame\n",
		"", "shardreg: bad verb \"steal\": malformed shard frame\n",
		a + "\n", "shardreg: bad count \"many\": malformed shard frame\n",
		"zzzz\n", "shardreg: fingerprint \"zzzz\": malformed content address: malformed shard frame\n",
		"", "",
		"", "404 page not found\n",
		"", "fingerprints=2 holders=2 announces=3 withdraws=0 peer=3/4096 registry=2/1024\n",
		"", "",
	}
}

// FuzzLineCodec: over any body, the codec that walks it gives what the
// one that split it gave — the same lines, list, verdicts, and an error
// exactly where that one gave an error.
func FuzzLineCodec(f *testing.F) {
	for _, body := range goldenBodies(f) {
		f.Add(body)
	}
	const fp = "d41d8cd98f00b204e9800998ecf8427e"
	for _, body := range []string{
		fp + " present\n" + fp + "-c2 absent",        // no final newline
		fp + "\tpresent\r\n  " + fp + "   absent \n", // tabs, \r, runs of spaces
		fp + " present junk\n",                       // a trailing junk field
		fp + " maybe\n", "zzzz present\n", fp + "\n", // bad verdict, bad fingerprint, no verdict
		fp + "\u00a0present\n" + fp + "\u0085absent\n", // spaces past ASCII
		"\xff\xfe " + fp + "\n\n\n x \n",
	} {
		f.Add([]byte(body))
	}
	for _, body := range retiredGoldenBodies() {
		f.Add([]byte(body))
	}
	// The seeds of the shard-routing request parser, which read its
	// fingerprint list through List.
	for _, body := range []string{
		"",
		"\n\n\n",
		knownFP + "\n",
		knownFP + "\n" + knownFP + "\n", // duplicates
		fp + "\n",                       // unknown but well-formed
		"zzzz\n",                        // malformed fingerprint
		knownFP + "\n",                  // its header's count overran the list
		fp + "-c2\n",                    // collision id form
		knownFP + " present\n",          // response-shaped input
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, want := Lines(body), oracleLines(body); !reflect.DeepEqual(got, want) {
			t.Fatalf("Lines(%q) = %#v, want %#v", body, got, want)
		}
		if got, want := List(body), oracleList(body); !reflect.DeepEqual(got, want) {
			t.Fatalf("List(%q) = %#v, want %#v", body, got, want)
		}
		fps, present, err := ParseVerdicts(body)
		wantFPs, wantPresent, wantErr := oracleParseVerdicts(body)
		if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(fps, wantFPs) || !reflect.DeepEqual(present, wantPresent) {
			t.Fatalf("ParseVerdicts(%q) = %#v, %v, %v, want %#v, %v, %v", body, fps, present, err, wantFPs, wantPresent, wantErr)
		}
		if err != nil {
			return
		}
		// What parses frames back to itself, one verdict a line.
		framed := AppendVerdicts(nil, fps, present)
		if again, _, err := ParseVerdicts(framed); err != nil || !reflect.DeepEqual(again, fps) {
			t.Fatalf("ParseVerdicts(%q) does not survive reframing as %q: %v", body, framed, err)
		}
		if got := List(AppendList(nil, fps)); len(fps) > 0 && !reflect.DeepEqual(got, fps) {
			t.Fatalf("List(AppendList(%q)) = %q", fps, got)
		}
	})
}

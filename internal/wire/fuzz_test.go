package wire

import "testing"

// The parser targets moved here with the parsers, names and seeds
// unchanged: FuzzParseQueryBatchResponse and FuzzParseBatchResponse
// from gearregistry, where ParseVerdicts and ParseFrames were the
// querybatch and batch clients' private parsers.

// FuzzParseQueryBatchResponse: the verdict parser must never panic and
// must only accept well-formed fingerprint/verdict lines.
func FuzzParseQueryBatchResponse(f *testing.F) {
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e present\n"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e absent\n"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e-c2 present\n"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e maybe\n"))
	f.Add([]byte("zzzz present\n"))
	f.Add([]byte("no verdict"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fps, present, err := ParseVerdicts(data)
		if err != nil {
			return
		}
		if len(present) != len(fps) {
			t.Fatalf("%d verdicts for %d fingerprints", len(present), len(fps))
		}
		for _, fp := range fps {
			if err := fp.Validate(); err != nil {
				t.Fatalf("accepted invalid fingerprint %q", fp)
			}
		}
	})
}

// FuzzParseBatchResponse: the frame parser must never panic and must
// only accept frames whose payload lengths are consistent.
func FuzzParseBatchResponse(f *testing.F) {
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e 5 raw\nhello"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e 0 gzip\n"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e 99 raw\nshort"))
	f.Add([]byte("zzzz 5 raw\nhello"))
	f.Add([]byte("no header"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		objects, err := ParseFrames(data)
		if err != nil {
			return
		}
		var total int
		for _, o := range objects {
			if err := o.FP.Validate(); err != nil {
				t.Fatalf("accepted invalid fingerprint %q", o.FP)
			}
			total += len(o.Stored)
		}
		if total > len(data) {
			t.Fatalf("parsed %d payload bytes from %d input bytes", total, len(data))
		}
	})
}

// Package wire is the one HTTP layer under the repo's six line-framed
// protocols (DESIGN.md, "Wire protocols"): the line codec they share, a
// client helper that issues a request and hands back a bounded, drained
// reply, a server helper that dispatches a table of verbs, and the
// two-way error/status table both helpers read. A protocol is a verb
// table plus a status table; nothing outside this package reads a body,
// answers 404/405, or turns a status into an error.
package wire

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/tarstream"
)

// Lines returns body's lines, trimmed, blank ones skipped: the framing
// of every text body the protocols carry. A body without a line is nil.
func Lines(body []byte) []string { return lines[string](body) }

// lines is Lines with the lines as S. The body is copied once, as one
// string the lines are cut from where they lie, into a result sized to
// the lines it has.
func lines[S ~string](body []byte) []S {
	text := string(body)
	n := countLines(text)
	if n == 0 {
		return nil
	}
	out := make([]S, 0, n)
	for line, rest := nextLine(text); line != ""; line, rest = nextLine(rest) {
		out = append(out, S(line))
	}
	return out
}

// nextLine cuts the next line that is not blank off text, trimmed; ""
// says text holds no more.
func nextLine(text string) (line, rest string) {
	for line == "" && text != "" {
		line, text, _ = strings.Cut(text, "\n")
		line = strings.TrimSpace(line)
	}
	return line, text
}

// countLines is how many lines nextLine cuts off text.
func countLines(text string) (n int) {
	for line, rest := nextLine(text); line != ""; line, rest = nextLine(rest) {
		n++
	}
	return n
}

// nextField cuts the next field off line: fields are what strings.Fields
// splits a line into.
func nextField(line string) (field, rest string) {
	line = strings.TrimLeftFunc(line, unicode.IsSpace)
	if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
		return line[:i], line[i:]
	}
	return line, ""
}

// Record splits a line into the fingerprint it opens with and the n
// fields after it: the shape of every keyed line the protocols carry.
func Record(line string, n int) (hashing.Fingerprint, []string, error) {
	fields := strings.Fields(line)
	if len(fields) != n+1 {
		return "", nil, fmt.Errorf("malformed line %q", line)
	}
	fp := hashing.Fingerprint(fields[0])
	if err := fp.Validate(); err != nil {
		return "", nil, fmt.Errorf("line %q: %w", line, err)
	}
	return fp, fields[1:], nil
}

// Ints parses every field as a decimal number: the offsets, counts and
// sizes keyed lines and path arguments carry.
func Ints(fields []string) ([]int64, error) {
	out := make([]int64, len(fields))
	for i, field := range fields {
		var err error
		if out[i], err = strconv.ParseInt(field, 10, 64); err != nil {
			return nil, fmt.Errorf("bad number %q", field)
		}
	}
	return out, nil
}

// List decodes a fingerprint list, one per line, without validating
// it: a verb that hands the list to a pool lets the pool decide, in
// request order, between 400 for a malformed entry and 404 for an
// absent one.
func List(body []byte) []hashing.Fingerprint {
	if fps := lines[hashing.Fingerprint](body); fps != nil {
		return fps
	}
	return []hashing.Fingerprint{}
}

// ParseList is List for verbs that reject a malformed entry themselves.
func ParseList(body []byte) ([]hashing.Fingerprint, error) {
	fps := List(body)
	for _, fp := range fps {
		if err := fp.Validate(); err != nil {
			return nil, err
		}
	}
	return fps, nil
}

// AppendList frames fps one per line.
func AppendList(dst []byte, fps []hashing.Fingerprint) []byte {
	size := len(fps)
	for _, fp := range fps {
		size += len(fp)
	}
	dst = slices.Grow(dst, size)
	for _, fp := range fps {
		dst = append(append(dst, fp...), '\n')
	}
	return dst
}

// CheckEcho reports whether a batch reply names exactly the
// fingerprints the request did, in its order.
func CheckEcho(got, want []hashing.Fingerprint) error {
	if len(got) != len(want) {
		return fmt.Errorf("reply has %d entries, request had %d", len(got), len(want))
	}
	for i, fp := range got {
		if fp != want[i] {
			return fmt.Errorf("entry %d is %s, want %s", i, fp, want[i])
		}
	}
	return nil
}

// AppendVerdicts frames one "<fingerprint> present|absent" line per
// fingerprint.
func AppendVerdicts(dst []byte, fps []hashing.Fingerprint, present []bool) []byte {
	size := len(fps) * len(" present\n")
	for _, fp := range fps {
		size += len(fp)
	}
	dst = slices.Grow(dst, size)
	for i, fp := range fps {
		verdict := " absent\n"
		if present[i] {
			verdict = " present\n"
		}
		dst = append(append(dst, fp...), verdict...)
	}
	return dst
}

// ParseVerdicts decodes AppendVerdicts' framing, rejecting malformed
// lines and invalid fingerprints.
func ParseVerdicts(body []byte) (fps []hashing.Fingerprint, present []bool, err error) {
	text := string(body)
	n := countLines(text)
	if n == 0 {
		return nil, nil, nil
	}
	fps, present = make([]hashing.Fingerprint, 0, n), make([]bool, 0, n)
	for line, rest := nextLine(text); line != ""; line, rest = nextLine(rest) {
		// A line is Record(line, 1): two fields and no third.
		first, after := nextField(line)
		verdict, after := nextField(after)
		if junk, _ := nextField(after); verdict == "" || junk != "" {
			return nil, nil, fmt.Errorf("malformed line %q", line)
		}
		fp := hashing.Fingerprint(first)
		if err := fp.Validate(); err != nil {
			return nil, nil, fmt.Errorf("line %q: %w", line, err)
		}
		if verdict != "present" && verdict != "absent" {
			return nil, nil, fmt.Errorf("line %q: bad verdict", line)
		}
		fps = append(fps, fp)
		present = append(present, verdict == "present")
	}
	return fps, present, nil
}

// Object is one Gear file as a pool stores it and as it crosses the
// wire: Stored is a gzip stream when Gzip is set, and Size is what it
// inflates to, which the pool knows without inflating it.
type Object struct {
	FP     hashing.Fingerprint
	Stored []byte
	Gzip   bool
	Size   int64
}

// frameHeader is the line that opens o's frame.
func frameHeader(o Object) []byte {
	enc := "raw"
	if o.Gzip {
		enc = "gzip"
	}
	return fmt.Appendf(nil, "%s %d %s\n", o.FP, len(o.Stored), enc)
}

// WriteFrames frames each object as "<fingerprint> <len> raw|gzip\n"
// followed by exactly len stored bytes: the encoder a frame is checked
// against. A handler answers through RespondFrames instead.
func WriteFrames(w *bytes.Buffer, objects []Object) {
	for _, o := range objects {
		w.Write(frameHeader(o))
		w.Write(o.Stored)
	}
}

// ParseFrame decodes the line that opens a frame: whose object follows,
// how many stored bytes of it, and whether they are a gzip stream.
func ParseFrame(header string) (fp hashing.Fingerprint, stored int64, gzipped bool, err error) {
	fp, fields, err := Record(header, 2)
	if err != nil {
		return "", 0, false, err
	}
	size, err := strconv.Atoi(fields[0])
	if err != nil || size < 0 {
		return "", 0, false, fmt.Errorf("object header %q: bad size", header)
	}
	if fields[1] != "raw" && fields[1] != "gzip" {
		return "", 0, false, fmt.Errorf("object header %q: bad encoding", header)
	}
	return fp, int64(size), fields[1] == "gzip", nil
}

// ParseFrames decodes a whole buffer of WriteFrames' framing; the
// objects alias body. It rejects truncated or malformed frames.
func ParseFrames(body []byte) ([]Object, error) {
	var objects []Object
	for len(body) > 0 {
		header, rest, ok := bytes.Cut(body, []byte("\n"))
		if !ok {
			return nil, fmt.Errorf("truncated object header %q", body)
		}
		fp, size, gzipped, err := ParseFrame(string(header))
		if err != nil {
			return nil, err
		}
		if size > int64(len(rest)) {
			return nil, fmt.Errorf("object %s: truncated payload: want %d bytes, have %d", fp, size, len(rest))
		}
		objects = append(objects, Object{FP: fp, Stored: rest[:size], Gzip: gzipped})
		body = rest[size:]
	}
	return objects, nil
}

// The headers that gzip-frame a text body: EncodingHeader marks one,
// AcceptHeader tells the peer it may answer with one. The framing is
// explicit so that compression survives any transport.
const (
	EncodingHeader = "X-Gear-Encoding"
	AcceptHeader   = "X-Gear-Accept"
)

// gzipThreshold is the body size above which a fingerprint or verdict
// list is worth gzip-framing: a whole image's set is thousands of
// highly compressible hex lines, while a handful of lines costs more in
// gzip header than it saves.
const gzipThreshold = 1024

// Deflate gzip-frames a text body big enough to profit, reporting
// whether it did: the sender then sets EncodingHeader to "gzip".
func Deflate(body []byte) ([]byte, bool) {
	if len(body) > gzipThreshold {
		if z, err := tarstream.Gzip(body); err == nil {
			return z, true
		}
	}
	return body, false
}

// Inflate returns the content of a body or stored object that is a gzip
// stream when gzipped is set.
func Inflate(body []byte, gzipped bool) ([]byte, error) {
	if gzipped {
		return tarstream.Gunzip(body)
	}
	return body, nil
}

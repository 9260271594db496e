package shardreg

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/wire"
)

// Shard-routing wire protocol. A routing client that has resolved a
// fingerprint batch against the ring addresses each sub-batch at a
// specific shard; every frame opens with "gear-shard <shard-id> <verb>
// <n>" so a tier front-end can dispatch without re-hashing and a client
// can detect a routing mix-up from the echo. What follows the header is
// the shared codec's list, verdict or object framing (always "raw": the
// router re-serves decompressed payloads). Frames are canonical: a
// frame is accepted only if encoding what was parsed gives back the
// same bytes. Over HTTP: POST /shard; DESIGN.md, "Wire protocols".

// Wire verbs.
const (
	VerbQuery    = "query"
	VerbDownload = "download"
)

const wireMagic = "gear-shard"

// ErrBadFrame reports shard-routing framing that does not parse.
var ErrBadFrame = errors.New("malformed shard frame")

// RoutedRequest is one shard-addressed sub-batch.
type RoutedRequest struct {
	Shard string
	Verb  string // VerbQuery or VerbDownload
	Fps   []hashing.Fingerprint
}

func appendHeader(shard, verb string, n int) []byte {
	return fmt.Appendf(nil, "%s %s %s %d\n", wireMagic, shard, verb, n)
}

// parseHeader consumes the header line. The count is only checked to be
// a number: whether it is the right one is canonical form's business.
func parseHeader(data []byte) (shard, verb string, rest []byte, err error) {
	line, rest, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return "", "", nil, fmt.Errorf("shardreg: missing header: %w", ErrBadFrame)
	}
	fields := strings.Fields(string(line))
	if len(fields) != 4 || fields[0] != wireMagic {
		return "", "", nil, fmt.Errorf("shardreg: bad header %q: %w", line, ErrBadFrame)
	}
	shard, verb = fields[1], fields[2]
	if err := validateShardID(shard); err != nil {
		return "", "", nil, fmt.Errorf("%w: %w", err, ErrBadFrame)
	}
	if verb != VerbQuery && verb != VerbDownload {
		return "", "", nil, fmt.Errorf("shardreg: bad verb %q: %w", verb, ErrBadFrame)
	}
	if _, err := strconv.Atoi(fields[3]); err != nil {
		return "", "", nil, fmt.Errorf("shardreg: bad count %q: %w", fields[3], ErrBadFrame)
	}
	return shard, verb, rest, nil
}

// errNotCanonical is the post-condition every frame parser ends with.
// The shared codec tolerates blank lines, tabs and runs of spaces, and a
// header could say "+1", the wrong count or the wrong verb for what
// follows it; but only the bytes the encoder would have produced from
// what was parsed are a frame.
var errNotCanonical = fmt.Errorf("shardreg: frame is not in canonical form: %w", ErrBadFrame)

func badFrame(err error) error { return fmt.Errorf("shardreg: %w: %w", err, ErrBadFrame) }

// EncodeRoutedRequest frames a shard-addressed batch request.
func EncodeRoutedRequest(req RoutedRequest) []byte {
	return wire.AppendList(appendHeader(req.Shard, req.Verb, len(req.Fps)), req.Fps)
}

// ParseRoutedRequest decodes a shard-addressed batch request.
func ParseRoutedRequest(data []byte) (RoutedRequest, error) {
	shard, verb, rest, err := parseHeader(data)
	if err != nil {
		return RoutedRequest{}, err
	}
	fps, err := wire.ParseList(rest)
	if err != nil {
		return RoutedRequest{}, badFrame(err)
	}
	req := RoutedRequest{Shard: shard, Verb: verb, Fps: fps}
	if !bytes.Equal(EncodeRoutedRequest(req), data) {
		return RoutedRequest{}, errNotCanonical
	}
	return req, nil
}

// EncodeQueryResponse frames a shard's presence verdicts.
func EncodeQueryResponse(shard string, fps []hashing.Fingerprint, present []bool) []byte {
	return wire.AppendVerdicts(appendHeader(shard, VerbQuery, len(fps)), fps, present)
}

// ParseQueryResponse decodes a shard query response, returning the
// answering shard and the verdicts in request order.
func ParseQueryResponse(data []byte) (shard string, fps []hashing.Fingerprint, present []bool, err error) {
	shard, _, rest, err := parseHeader(data)
	if err != nil {
		return "", nil, nil, err
	}
	if fps, present, err = wire.ParseVerdicts(rest); err != nil {
		return "", nil, nil, badFrame(err)
	}
	if !bytes.Equal(EncodeQueryResponse(shard, fps, present), data) {
		return "", nil, nil, errNotCanonical
	}
	return shard, fps, present, nil
}

// rawObjects is payloads as the objects a shard serves them as.
func rawObjects(fps []hashing.Fingerprint, payloads [][]byte) []wire.Object {
	objects := make([]wire.Object, len(fps))
	for i, fp := range fps {
		objects[i] = wire.Object{FP: fp, Stored: payloads[i], Size: int64(len(payloads[i]))}
	}
	return objects
}

// EncodeDownloadResponse frames a shard's served payloads.
func EncodeDownloadResponse(shard string, fps []hashing.Fingerprint, payloads [][]byte) []byte {
	buf := bytes.NewBuffer(appendHeader(shard, VerbDownload, len(fps)))
	wire.WriteFrames(buf, rawObjects(fps, payloads))
	return buf.Bytes()
}

// ParseDownloadResponse decodes a shard download response: the
// answering shard plus payloads in request order, aliasing data.
func ParseDownloadResponse(data []byte) (shard string, fps []hashing.Fingerprint, payloads [][]byte, err error) {
	shard, _, rest, err := parseHeader(data)
	if err != nil {
		return "", nil, nil, err
	}
	objects, err := wire.ParseFrames(rest)
	if err != nil {
		return "", nil, nil, badFrame(err)
	}
	for _, o := range objects {
		fps, payloads = append(fps, o.FP), append(payloads, o.Stored)
	}
	if !bytes.Equal(EncodeDownloadResponse(shard, fps, payloads), data) {
		return "", nil, nil, errNotCanonical
	}
	return shard, fps, payloads, nil
}

// statuses is the protocol's error table: an unknown or removed shard
// and an object missing on the addressed shard are 404, a killed shard
// 503, malformed framing or fingerprints 400.
var statuses = wire.Statuses{
	{Err: ErrUnknownShard, Code: http.StatusNotFound},
	{Err: gearregistry.ErrNotFound, Code: http.StatusNotFound},
	{Err: ErrShardDown, Code: http.StatusServiceUnavailable},
	{Err: ErrBadFrame, Code: http.StatusBadRequest},
}

// NewHandler serves shard-addressed batches over HTTP: POST /shard
// takes a routed request frame and answers with the query or download
// response frame.
func NewHandler(c *Cluster) *wire.Handler {
	return wire.NewHandler(statuses, wire.Verb{Method: http.MethodPost, Path: "/shard", Serve: func(w http.ResponseWriter, r *wire.Request) error {
		req, err := ParseRoutedRequest(r.Body)
		if err != nil {
			return err
		}
		if req.Verb == VerbQuery {
			present, err := c.ShardQueryBatch(req.Shard, req.Fps)
			if err != nil {
				return err
			}
			wire.Respond(w, "application/octet-stream", EncodeQueryResponse(req.Shard, req.Fps, present))
			return nil
		}
		payloads, _, err := c.ShardDownloadBatch(req.Shard, req.Fps)
		if err != nil {
			return err
		}
		wire.RespondFrames(w, appendHeader(req.Shard, VerbDownload, len(req.Fps)), rawObjects(req.Fps, payloads))
		return nil
	}})
}

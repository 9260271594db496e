package wire

import (
	"context"
	"io"
	"net"
	"net/http"

	"github.com/gear-image/gear/internal/tarstream"
)

// idleConns is how many idle connections the transport keeps to one
// server: the store's fetch fan-out (store.DefaultFetchWorkers) and its
// read-ahead beside it, so that a wave of parallel fetches finds the
// connections of the wave before it. net/http's default of 2 re-dials
// the rest of every wave.
const idleConns = 16

// transport carries every client that does not bring a transport of its
// own. It is http.DefaultTransport but for three things: its
// connections copy a request body through pooled scratch, it keeps
// idleConns connections a server, and it sends no Accept-Encoding — the
// protocols gzip-frame their own bodies (EncodingHeader).
var transport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	dial := t.DialContext
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return conn{c}, nil
	}
	t.MaxIdleConnsPerHost = idleConns
	t.DisableCompression = true
	return t
}()

// conn is a dialled connection. net/http hands a sized request body to
// the connection's ReadFrom, and a TCP connection's own, given a source
// that is not a file, allocates a buffer of up to 32 KiB for every body
// it copies.
type conn struct{ net.Conn }

func (c conn) ReadFrom(r io.Reader) (int64, error) {
	// The embedded interface has no ReadFrom for Copy to come back to.
	return tarstream.Copy(struct{ io.Writer }{c.Conn}, r)
}

//go:build !unix

package wire

// alive cannot ask a connection without waiting here: an idle
// connection the server closed is found out by the request sent on it.
func (pc *persistConn) alive() bool { return true }

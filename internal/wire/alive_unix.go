//go:build unix

package wire

import "syscall"

// alive reports whether the server has neither closed pc nor sent
// anything on it while it sat idle: a read that does not wait finds
// nothing to read. A deadline on pc has been cleared (put), or the probe
// would fail on it.
func (pc *persistConn) alive() bool {
	if pc.raw == nil {
		return true // not a descriptor: nothing to ask without waiting
	}
	if pc.probe == nil {
		pc.probe = pc.readNothing
	}
	return pc.raw.Read(pc.probe) == nil && pc.unread
}

// readNothing reads fd once without waiting — Go's descriptors are
// non-blocking — and records whether there was nothing to read. End of
// stream, an error or a byte no request asked for all make pc unfit.
func (pc *persistConn) readNothing(fd uintptr) bool {
	var b [1]byte
	_, err := syscall.Read(int(fd), b[:])
	pc.unread = err == syscall.EAGAIN || err == syscall.EWOULDBLOCK
	return true
}

// Package clientopt is the one HTTP client option surface shared by
// every remote client in the codebase: the gear-registry store client,
// the peer tracker client, and the prefetch profile client each grew
// their own retry/backoff/timeout knobs; this package replaces all
// three patterns with a single Options struct (exposed publicly as
// gear.ClientOptions).
package clientopt

import (
	"net/http"
	"time"
)

// MaxBackoffShift caps exponential backoff growth: the wait before
// retry i is Backoff << min(i-1, MaxBackoffShift), so with the default
// shift the longest sleep is 64× the base.
const MaxBackoffShift = 6

// Options configures a remote HTTP client. The zero value means one
// attempt, no backoff, default transport timeout — exactly the
// behavior every client had before this struct existed.
type Options struct {
	// Retries is the number of re-attempts after the first try fails
	// on a transient error. 0 disables retrying.
	Retries int
	// Backoff is the wait before the first retry; it doubles per retry
	// up to MaxBackoffShift doublings. 0 retries immediately.
	Backoff time.Duration
	// Timeout bounds each HTTP request end to end. 0 leaves the
	// http.Client default (no timeout).
	Timeout time.Duration
}

// Attempts returns the total try budget (first try + retries),
// never below 1.
func (o Options) Attempts() int { return max(o.Retries, 0) + 1 }

// HTTPClient returns an http.Client honoring o.Timeout, nil with a zero
// Timeout. Either way it names no transport: wire.NewClient gives the
// client its own.
func (o Options) HTTPClient() *http.Client {
	if o.Timeout <= 0 {
		return nil
	}
	return &http.Client{Timeout: o.Timeout}
}

// Sleep blocks for the backoff due before retry number retry
// (1-based). Retry 0 or a zero Backoff return immediately.
func (o Options) Sleep(retry int) {
	if retry <= 0 || o.Backoff <= 0 {
		return
	}
	time.Sleep(o.Backoff << min(retry-1, MaxBackoffShift))
}

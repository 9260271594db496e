package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/experiments"
)

func TestRun(t *testing.T) {
	// What a redirect of stdout captures must be regenerable byte for
	// byte (benchreport_output.txt is), so nothing measured on the host's
	// clock may be in it; the run's duration goes to stderr.
	var first, second, errOut bytes.Buffer
	for _, out := range []*bytes.Buffer{&first, &second} {
		if err := run([]string{"-exp", "fig2", "-quick"}, out, &errOut); err != nil {
			t.Fatal(err)
		}
	}
	if first.String() != second.String() {
		t.Errorf("two runs printed different reports:\n%s\n---\n%s", &first, &second)
	}
	if !strings.HasPrefix(first.String(), "gear benchreport: exp=fig2 ") ||
		strings.Contains(first.String(), "completed in") {
		t.Errorf("stdout = %q", &first)
	}
	if !strings.Contains(errOut.String(), "completed in") {
		t.Errorf("stderr = %q, want the completion line", &errOut)
	}

	var out bytes.Buffer
	if err := run([]string{"-exp", "nope", "-quick"}, &out, &errOut); !errors.Is(err, experiments.ErrUnknownExperiment) {
		t.Errorf("-exp nope: err = %v, want ErrUnknownExperiment", err)
	}
	if err := run([]string{"-exp", "all", "-json"}, &out, &errOut); err == nil {
		t.Error("-json with -exp all accepted")
	}
	// The simulator-wall-time snapshot regime is gone, its flags included.
	if err := run([]string{"-bench", "x.json", "-pr", "1"}, &out, &errOut); err == nil {
		t.Error("-bench accepted")
	}
}

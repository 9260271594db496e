package wire_test

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/prefetch"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/vfs"
)

// reserved are names that mean something in a URL: an escape, a query,
// a fragment, a space, a plus. A client sets them as the request's path,
// so they cross escaped and arrive as they left.
var reserved = []string{"app%41", "app%zz", "100%", "app?x", "app?", "app#1", "my app", "a+b", "a%2Fb"}

func reservedImage(t *testing.T, name, tag string) *imagefmt.Image {
	t.Helper()
	layer := vfs.New()
	if err := layer.WriteFile("/app", []byte(name+":"+tag), 0o755); err != nil {
		t.Fatal(err)
	}
	b := imagefmt.NewBuilder(name, tag)
	if err := b.AddDiffLayer(layer); err != nil {
		t.Fatal(err)
	}
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// A name is bytes to a store, in process and over HTTP alike: whatever
// it holds, both give the same image or the same typed error. (Spelled
// into a URL and parsed, "app%41" used to pull appA over HTTP, and a
// push of "app?x" or "app#1" was a 400.)
func TestReservedNamesRoundTrip(t *testing.T) {
	t.Run("registry", func(t *testing.T) {
		srv := httptest.NewServer(registry.NewHandler(registry.New()))
		defer srv.Close()
		stores := map[string]registry.Store{"in process": registry.New(), "over HTTP": registry.NewClient(srv.URL, nil)}
		// What a store says of one reference: the image, or the error's type.
		pull := func(s registry.Store, name, tag string) string {
			img, err := registry.Pull(s, name, tag)
			switch {
			case errors.Is(err, registry.ErrManifestNotFound):
				return "no such manifest"
			case err != nil:
				return "error: " + err.Error()
			}
			return fmt.Sprintf("%s %v", img.Manifest.Reference(), img.Manifest.Layers)
		}
		refs := [][2]string{}
		for _, r := range reserved {
			refs = append(refs, [2]string{r, "v1"}, [2]string{"app", r})
		}
		var said []string
		for which, s := range stores {
			if _, err := registry.Push(s, reservedImage(t, "appA", "v1")); err != nil {
				t.Fatalf("%s: push appA:v1: %v", which, err)
			}
			var log []string
			for _, ref := range refs {
				log = append(log, "before: "+pull(s, ref[0], ref[1]))
				if _, err := registry.Push(s, reservedImage(t, ref[0], ref[1])); err != nil {
					t.Errorf("%s: push %s:%s: %v", which, ref[0], ref[1], err)
				}
				log = append(log, "after: "+pull(s, ref[0], ref[1]))
			}
			list, err := s.ListManifests()
			log = append(log, fmt.Sprintf("list: %q %v", list, err))
			if said == nil {
				said = log
			} else if !reflect.DeepEqual(log, said) {
				t.Errorf("the stores disagree:\n%q\n%q", said, log)
			}
		}
		if said[0] != "before: no such manifest" || said[1] == said[0] {
			t.Errorf("app%%41:v1 is %q before its push and %q after", said[0], said[1])
		}
	})

	// The profile library's references ride a line framing as well as a
	// path, and both ends refuse one with whitespace in it.
	t.Run("prefetch", func(t *testing.T) {
		lib := prefetch.NewLibrary()
		srv := httptest.NewServer(prefetch.NewLibraryHandler(lib))
		defer srv.Close()
		c := prefetch.NewLibraryClient(srv.URL, nil)
		if err := lib.Put(&prefetch.Profile{ImageRef: "gear/appA:v1"}); err != nil {
			t.Fatal(err)
		}
		for _, r := range reserved {
			ref := "gear/" + r + ":v1"
			if r == "my app" {
				continue
			}
			if _, err := c.Dump(ref); !errors.Is(err, prefetch.ErrNoProfile) {
				t.Errorf("dump %s before it is put: %v, want ErrNoProfile as in process", ref, err)
			}
			want := &prefetch.Profile{ImageRef: ref, Entries: []prefetch.Entry{{Fingerprint: "d41d8cd98f00b204e9800998ecf8427e", Size: int64(len(r))}}}
			if err := lib.Put(want); err != nil {
				t.Fatal(err)
			}
			if got, err := c.Dump(ref); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("dump %s: %+v, %v, want %+v", ref, got, err, want)
			}
			if err := c.Delete(ref); err != nil {
				t.Errorf("delete %s: %v", ref, err)
			}
			if _, err := lib.Get(ref); !errors.Is(err, prefetch.ErrNoProfile) {
				t.Errorf("%s after its delete over HTTP: %v, want ErrNoProfile", ref, err)
			}
		}
		if _, err := lib.Get("gear/appA:v1"); err != nil {
			t.Errorf("gear/appA:v1, which nobody named: %v", err)
		}
	})
}

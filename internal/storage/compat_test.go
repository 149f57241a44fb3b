package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture testdata/parentstore was written by format 1 of the store,
// which framed every record on its own: three segments holding 48
// trajectories and a snapshot after the first 40, abandoned without Close
// as a crash leaves them.

// TestParentFormatStoreRefused: a format-1 store is refused with an error
// naming its version, and the refused Open changes none of its files.
// Nothing was deployed in that format, so there is no migration.
func TestParentFormatStoreRefused(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "parentstore")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
		before[e.Name()] = b
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("Open of a format-1 store: %v, want an error naming version 1", err)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("refused Open left %d files, want the fixture's %d", len(after), len(before))
	}
	for name, want := range before {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("refused Open changed %s (err %v)", name, err)
		}
	}
}

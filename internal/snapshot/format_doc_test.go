package snapshot

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// docs/SNAPSHOT_FORMAT.md is the byte-level contract and this package
// the only declaration of its constants; the two must say the same
// numbers.
func TestFormatDocMatchesConstants(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SNAPSHOT_FORMAT.md")
	if err != nil {
		t.Fatal(err)
	}
	find := func(what, pattern string) []string {
		t.Helper()
		m := regexp.MustCompile(pattern).FindSubmatch(doc)
		if m == nil {
			t.Fatalf("docs/SNAPSHOT_FORMAT.md no longer states the %s (pattern %q)", what, pattern)
		}
		out := make([]string, len(m)-1)
		for i := range out {
			out[i] = string(m[i+1])
		}
		return out
	}
	num := func(s string) int {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := find("magic", `magic\s+ASCII "([^"]+)"`)[0]; got != magic {
		t.Errorf("doc magic %q, code %q", got, magic)
	}
	if got := num(find("version", `version\s+u64\s+currently (\d+)`)[0]); got != Version {
		t.Errorf("doc version %d, code %d", got, Version)
	}
	if got := num(find("header size", `### Header \((\d+) bytes\)`)[0]); got != headerSize {
		t.Errorf("doc header size %d, code %d", got, headerSize)
	}
	kinds := find("section kinds", `kind\s+u64\s+(\d+) = matrices, (\d+) = store, (\d+) = delta`)
	for i, want := range []int{sectionMatrices, sectionStore, sectionDelta} {
		if got := num(kinds[i]); got != want {
			t.Errorf("doc section kind %d is %d, code says %d", i, got, want)
		}
	}
}

// Package golden compares what a test produces with a file under its
// package's testdata. It owns the one -update flag of every test binary
// that imports it: `go test <pkg> -run <Test> -update` rewrites the files
// of the selected tests from the current code, and git diff shows what
// moved. Only test files import it.
package golden

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false,
	"rewrite the golden files of the tests selected by -run from the current code")

// JSON compares v, encoded as json.MarshalIndent(v, "", "  ") plus a
// newline, with the file at path, and reports what Diff reports.
func JSON(t testing.TB, path string, v any) {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if want, ok := read(t, path, append(b, '\n')); ok {
		if d := diff(want, b); d != "" {
			t.Errorf("%s differs from the current code (rewrite it on purpose with -update):%s", path, d)
		}
	}
}

// Diff compares the JSON encodings of recorded and got. It returns "" when
// they are identical, and otherwise one line per leaf path that moved, was
// recorded but not produced, or was produced but not recorded, such as
// "trace/sf/Result/AvgReadLatencyNs: recorded 412.3, got 398.1". Numbers
// compare by their digits, so a float matches only exactly.
func Diff(recorded, got any) string {
	r, err := json.Marshal(recorded)
	if err != nil {
		return "\n\t" + err.Error()
	}
	g, err := json.Marshal(got)
	if err != nil {
		return "\n\t" + err.Error()
	}
	if bytes.Equal(r, g) {
		return ""
	}
	if d := diff(r, g); d != "" {
		return d
	}
	return "\n\tthe encodings differ, not their leaves"
}

// diff lists the leaves at which two JSON documents differ.
func diff(recorded, got []byte) string {
	rec, err := leaves(recorded)
	if err != nil {
		return "\n\trecorded: " + err.Error()
	}
	gotLeaves, _ := leaves(got) // got is always an encoding
	union := maps.Clone(rec)
	maps.Copy(union, gotLeaves)
	var out strings.Builder
	for _, k := range slices.Sorted(maps.Keys(union)) {
		r, inRec := rec[k]
		g, inGot := gotLeaves[k]
		switch {
		case !inGot:
			fmt.Fprintf(&out, "\n\t%s: recorded %s, not produced", k, r)
		case !inRec:
			fmt.Fprintf(&out, "\n\t%s: produced %s, not recorded", k, g)
		case r != g:
			fmt.Fprintf(&out, "\n\t%s: recorded %s, got %s", k, r, g)
		}
	}
	return out.String()
}

// Text compares s with the file at path and names the first line that
// differs ("" past the last line).
func Text(t testing.TB, path, s string) {
	t.Helper()
	want, ok := read(t, path, []byte(s))
	if !ok || s == string(want) {
		return
	}
	// Both splits end in their text's unterminated rest, so unequal texts
	// differ at an index both have.
	rec, got := strings.SplitAfter(string(want), "\n"), strings.SplitAfter(s, "\n")
	i := 0
	for rec[i] == got[i] {
		i++
	}
	t.Errorf("%s:%d: recorded %q, got %q (rewrite it on purpose with -update)", path, i+1, rec[i], got[i])
}

// read writes got to path under -update and reports false; otherwise it
// returns the file's contents.
func read(t testing.TB, path string, got []byte) ([]byte, bool) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("%v", err)
		}
		return nil, false
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	return want, true
}

// leaves decodes a JSON document into its leaf paths, each with its value
// as compact JSON; an empty object or array is a leaf.
func leaves(b []byte) (map[string]string, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	out := map[string]string{}
	var walk func(p string, v any)
	walk = func(p string, v any) {
		m, _ := v.(map[string]any)
		for k, e := range m {
			walk(p+"/"+k, e)
		}
		a, _ := v.([]any)
		for i, e := range a {
			walk(fmt.Sprintf("%s/%d", p, i), e)
		}
		if len(m)+len(a) == 0 {
			b, _ := json.Marshal(v) // a decoded value always re-encodes
			out[strings.TrimPrefix(p, "/")] = string(b)
		}
	}
	walk("", v)
	return out, nil
}

package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps what a check reports instead of
// failing the test that runs it.
type recorder struct {
	*testing.T
	report []string
}

func (r *recorder) Errorf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	runtime.Goexit()
}

// expect runs f against a recorder on its own goroutine, so a Fatalf ends f
// and not the test, and requires the report to hold every want, or to be
// empty if none is given.
func expect(t *testing.T, f func(tb testing.TB), want ...string) string {
	t.Helper()
	r := &recorder{T: t}
	done := make(chan struct{})
	go func() { defer close(done); f(r) }()
	<-done
	report := strings.Join(r.report, "\n")
	if len(want) == 0 && report != "" {
		t.Errorf("unexpected report:\n%s", report)
	}
	for _, w := range want {
		if !strings.Contains(report, w) {
			t.Errorf("report lacks %q:\n%s", w, report)
		}
	}
	return report
}

// -update writes the file and a rerun passes; then every moved, stale or
// new leaf is named by its path. A stale key is what json.Unmarshal into a
// struct would drop silently.
func TestJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.json")
	v := map[string]map[string]map[string]float64{"trace": {"sf": {"Hits": 3, "Ratio": 412.3}}}
	*update = true
	JSON(t, path, v)
	*update = false
	if b, _ := os.ReadFile(path); string(b) != "{\n  \"trace\": {\n    \"sf\": {\n      \"Hits\": 3,\n      \"Ratio\": 412.3\n    }\n  }\n}\n" {
		t.Errorf("-update wrote %q", b)
	}
	expect(t, func(tb testing.TB) { JSON(tb, path, v) })

	v["trace"]["sf"]["Ratio"] = 398.1
	v["new"] = nil
	if err := os.WriteFile(path, []byte(`{"trace": {"sf": {"Hits": 3, "Ratio": 412.3, "Retired": 7}}, "list": [1, 2]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	report := expect(t, func(tb testing.TB) { JSON(tb, path, v) }, "g.json differs",
		"trace/sf/Ratio: recorded 412.3, got 398.1", "trace/sf/Retired: recorded 7, not produced",
		"list/1: recorded 2, not produced", "new: produced null, not recorded")
	if strings.Contains(report, "Hits") {
		t.Errorf("an unmoved leaf reported:\n%s", report)
	}
	expect(t, func(tb testing.TB) { JSON(tb, path+".absent", v) }, "g.json.absent", "create it with -update")
}

func TestTextNamesLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "page.txt")
	text := func(s string) func(testing.TB) { return func(tb testing.TB) { Text(tb, path, s) } }
	*update = true
	Text(t, path, "a 1\nb 2\nc 3\n")
	*update = false
	expect(t, text("a 1\nb 2\nc 3\n"))
	expect(t, text("a 1\nb 5\nc 3\n"), `page.txt:2: recorded "b 2\n", got "b 5\n"`)
	expect(t, text("a 1\nb 2\n"), `page.txt:3: recorded "c 3\n", got ""`)
	expect(t, text("a 1\nb 2\nc 3\nd 4\n"), `page.txt:4: recorded "", got "d 4\n"`)
}

func TestDiff(t *testing.T) {
	a, b := map[string][]float64{"x": {1, 0.1}}, map[string][]float64{"x": {1, 0.2, 3}}
	if d, want := Diff(a, a)+Diff(a, b), "\n\tx/1: recorded 0.1, got 0.2\n\tx/2: produced 3, not recorded"; d != want {
		t.Errorf("Diff = %q, want %q", d, want)
	}
}

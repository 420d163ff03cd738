package stringfigure

// Reflection-based wire round-trip audit, the one guard of the wire
// contract: every exported field of the structs that travel to remote
// workers is filled with a distinctive non-zero value, pushed through the
// real conversion + gob codec path, and must come back non-zero and equal.
// It discovers fields, so a new knob is audited with no edit here: plain
// data passes, and a func or interface field — which gob drops — fails by
// name. The same walk checks the public JSON schemas' field names.

import (
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// fillValue writes a distinctive non-zero value into v, recursing
// through structs, slices, maps and pointers. The counter makes every
// leaf unique, so two fields swapped in a conversion cannot cancel out.
// Interface fields other than error and func fields are left for the
// caller (they cannot be constructed generically).
func fillValue(v reflect.Value, c *int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*c++
		v.SetInt(int64(*c))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*c++
		v.SetUint(uint64(*c))
	case reflect.Float32, reflect.Float64:
		*c++
		v.SetFloat(float64(*c) + 0.5)
	case reflect.String:
		*c++
		v.SetString(fmt.Sprintf("fill-%d", *c))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillValue(s.Index(i), c)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		k := reflect.New(v.Type().Key()).Elem()
		e := reflect.New(v.Type().Elem()).Elem()
		fillValue(k, c)
		fillValue(e, c)
		m.SetMapIndex(k, e)
		v.Set(m)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(v.Elem(), c)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fillValue(f, c)
			}
		}
	case reflect.Interface:
		if v.Type() == reflect.TypeOf((*error)(nil)).Elem() {
			*c++
			v.Set(reflect.ValueOf(errors.New(fmt.Sprintf("fill-err-%d", *c))))
		}
	}
}

// zeroedFields returns the path of every exported field under v (through
// nested structs, pointers and slice elements) that is zero — after a
// fillValue and a trip over the wire, the signature of a field the codec
// drops. Func and non-error interface fields are never filled, so they are
// reported too: gob cannot carry them.
func zeroedFields(label string, v reflect.Value) []string {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			return zeroedFields(label, v.Elem())
		}
	case reflect.Slice:
		var out []string
		for i := 0; i < v.Len(); i++ {
			out = append(out, zeroedFields(fmt.Sprintf("%s[%d]", label, i), v.Index(i))...)
		}
		return out
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			if name := label + "." + f.Name; v.Field(i).IsZero() {
				out = append(out, name)
			} else {
				out = append(out, zeroedFields(name, v.Field(i))...)
			}
		}
		return out
	}
	return nil
}

// requireRoundTrip fails for every field of got that came back zeroed,
// naming it, and for any other difference from what was sent.
func requireRoundTrip(t *testing.T, label string, got, want any) {
	t.Helper()
	for _, f := range zeroedFields(label, reflect.ValueOf(got)) {
		t.Errorf("%s came back zeroed — it does not survive the wire", f)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s round-trip:\ngot  %+v\nwant %+v", label, got, want)
	}
}

// snakeCase is the sanctioned shape of a JSON field name.
var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// untaggedJSONFields returns the path of every exported field under t
// (through nested structs, pointers and slices) without an explicit
// snake_case json name; `json:"-"` excludes a field from the schema.
func untaggedJSONFields(label string, t reflect.Type) []string {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		return untaggedJSONFields(label, t.Elem())
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case name == "-":
			case !snakeCase.MatchString(name):
				out = append(out, label+"."+f.Name)
			default:
				out = append(out, untaggedJSONFields(label+"."+f.Name, f.Type)...)
			}
		}
		return out
	}
	return nil
}

func TestWireRoundTripByReflection(t *testing.T) {
	// SessionConfig travels inside a wireJob, and the struct that travels
	// is the struct that is audited: a whole job, filled SessionConfig and
	// networkSpec (alive mask included), through the codec ServeWorker and
	// a cluster-attached Sweep use.
	t.Run("SessionConfig", func(t *testing.T) {
		var job wireJob
		c := 0
		fillValue(reflect.ValueOf(&job).Elem(), &c)
		b, err := encodeWire(job)
		if err != nil {
			t.Fatal(err)
		}
		var got wireJob
		if err := decodeWire(b, &got); err != nil {
			t.Fatal(err)
		}
		requireRoundTrip(t, "wireJob", got, job)
	})

	t.Run("Point", func(t *testing.T) {
		var p Point
		var w SyntheticWorkload
		c := 0
		fillValue(reflect.ValueOf(&p).Elem(), &c)
		fillValue(reflect.ValueOf(&w).Elem(), &c)
		p.Workload = w
		wp, ok := pointToWire(p)
		if !ok {
			t.Fatal("filled Point not serializable")
		}
		b, err := encodeWire(wp)
		if err != nil {
			t.Fatal(err)
		}
		var back wirePoint
		if err := decodeWire(b, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.point()
		if err != nil {
			t.Fatal(err)
		}
		requireRoundTrip(t, "Point", got, p)
	})

	t.Run("Result", func(t *testing.T) {
		var res Result
		c := 0
		fillValue(reflect.ValueOf(&res).Elem(), &c)
		b, err := encodeWire(resultToWire(res))
		if err != nil {
			t.Fatal(err)
		}
		var wr wireResult
		if err := decodeWire(b, &wr); err != nil {
			t.Fatal(err)
		}
		requireRoundTrip(t, "Result", wr.result(), res)
	})

	t.Run("TelemetrySnapshot", func(t *testing.T) {
		var snap TelemetrySnapshot
		c := 0
		fillValue(reflect.ValueOf(&snap).Elem(), &c)
		b, err := encodeWire(wireSnapshotBatch{Snaps: []TelemetrySnapshot{snap}})
		if err != nil {
			t.Fatal(err)
		}
		var batch wireSnapshotBatch
		if err := decodeWire(b, &batch); err != nil {
			t.Fatal(err)
		}
		if len(batch.Snaps) != 1 {
			t.Fatalf("batch came back with %d snapshots, want 1", len(batch.Snaps))
		}
		requireRoundTrip(t, "TelemetrySnapshot", batch.Snaps[0], snap)
	})

	// The HTTP job schema and the NDJSON stream name every field
	// explicitly, so a Go rename never renames a public JSON key.
	t.Run("JSON tags", func(t *testing.T) {
		for _, v := range []any{JobSpec{}, ScenarioSpec{}, GateEvent{}, ScenarioEvent{}} {
			typ := reflect.TypeOf(v)
			for _, f := range untaggedJSONFields(typ.Name(), typ) {
				t.Errorf("%s has no explicit snake_case json name", f)
			}
		}
	})

	// The guard fires: what gob cannot carry, and what a schema forgot to
	// name, is reported by field name.
	t.Run("guard fires", func(t *testing.T) {
		type hostile struct {
			Knob   int `json:"knob"`
			Hook   func()
			Source Workload `json:"workLoad"`
			Nested []struct {
				Kept    int `json:"kept"`
				Dropped int `json:"-"`
				Bare    int
			} `json:"nested"`
			hidden func()
		}
		var sent hostile
		c := 0
		fillValue(reflect.ValueOf(&sent).Elem(), &c)
		sent.hidden = func() {}
		b, err := encodeWire(sent)
		if err != nil {
			t.Fatal(err)
		}
		var got hostile
		if err := decodeWire(b, &got); err != nil {
			t.Fatal(err)
		}
		if zeroed, want := zeroedFields("hostile", reflect.ValueOf(got)), []string{"hostile.Hook", "hostile.Source"}; !reflect.DeepEqual(zeroed, want) {
			t.Errorf("zeroed fields: got %v, want %v", zeroed, want)
		}
		if bad, want := untaggedJSONFields("hostile", reflect.TypeOf(got)), []string{"hostile.Hook", "hostile.Source", "hostile.Nested.Bare"}; !reflect.DeepEqual(bad, want) {
			t.Errorf("untagged JSON fields: got %v, want %v", bad, want)
		}
	})
}

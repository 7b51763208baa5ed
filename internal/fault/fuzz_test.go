package fault

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzFaultTrace feeds arbitrary text through the scripted-trace parser.
// Accepted traces must survive a Write/Parse round trip unchanged, pass
// Validate for a machine wide enough to hold every named group, and keep
// Lint/DownWindows panic-free on hostile group sets. Lint and DownWindows
// allocate per machine group and depend only on group identity, so they
// run on the trace with its groups renumbered densely: a single huge group
// number must not size a machine of that many groups.
func FuzzFaultTrace(f *testing.F) {
	f.Add("100 fail 0,3\n250 repair 3\n")
	f.Add("# comment\n\n0 fail 0\n0 repair 0\n")
	f.Add("10 explode 1\n")
	f.Add("9223372036854775807 fail 1\n")
	f.Add("5 fail 0,0,0\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		maxG := 0
		for _, e := range tr.Events {
			for _, g := range e.Groups {
				if g >= maxG {
					maxG = g + 1
				}
			}
		}
		if maxG == 0 {
			maxG = 1
		}
		if err := tr.Validate(maxG); err != nil {
			t.Fatalf("parsed trace fails Validate(%d): %v\ninput: %q", maxG, err, in)
		}
		dense, n := denseGroups(tr)
		_ = dense.Lint(n)
		_ = dense.DownWindows(n, 1<<40)

		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write: %v", err)
		}
		back, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-Parse of written trace: %v\nwritten: %q", err, buf.String())
		}
		if len(back.Events) != len(tr.Events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(tr.Events), len(back.Events))
		}
		for i := range back.Events {
			a, b := tr.Events[i], back.Events[i]
			if a.Time != b.Time || a.Kind != b.Kind || len(a.Groups) != len(b.Groups) {
				t.Fatalf("event %d changed: %+v -> %+v", i, a, b)
			}
			for k := range a.Groups {
				if a.Groups[k] != b.Groups[k] {
					t.Fatalf("event %d group %d changed: %d -> %d", i, k, a.Groups[k], b.Groups[k])
				}
			}
		}
	})
}

// denseGroups returns a copy of tr whose groups are renumbered by rank
// among the distinct groups it names, and the number of those groups.
func denseGroups(tr *Trace) (*Trace, int) {
	var ids []int
	for _, e := range tr.Events {
		ids = append(ids, e.Groups...)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	out := &Trace{Events: make([]Event, len(tr.Events))}
	for i, e := range tr.Events {
		e.Groups = slices.Clone(e.Groups)
		for k, g := range e.Groups {
			e.Groups[k], _ = slices.BinarySearch(ids, g)
		}
		out.Events[i] = e
	}
	return out, max(len(ids), 1)
}

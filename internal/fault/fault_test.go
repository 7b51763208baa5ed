package fault

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"elastisched/internal/dist"
)

func TestGenerateDeterministicAndValid(t *testing.T) {
	p := GenParams{Groups: 10, MTBF: 5000, MTTR: 800, Horizon: 100000, Seed: 42}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 {
		t.Fatal("expected some events at MTBF=5000 over 100000s")
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("non-deterministic: %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		av, bv := a.Events[i], b.Events[i]
		if av.Time != bv.Time || av.Kind != bv.Kind || av.Groups[0] != bv.Groups[0] {
			t.Fatalf("event %d differs: %+v vs %+v", i, av, bv)
		}
	}
	if err := a.Validate(p.Groups); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if issues := a.Lint(p.Groups); len(issues) != 0 {
		t.Fatalf("generated trace lints: %v", issues)
	}
}

func TestGenerateClosesEveryOutage(t *testing.T) {
	tr, err := Generate(GenParams{Groups: 8, MTBF: 300, MTTR: 5000, Horizon: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fails, repairs := 0, 0
	for _, e := range tr.Events {
		switch e.Kind {
		case Fail:
			fails++
		case Repair:
			repairs++
		}
	}
	if fails == 0 || fails != repairs {
		t.Fatalf("want paired fail/repair, got %d fails %d repairs", fails, repairs)
	}
	// With every outage closed, no down window may extend to the horizon
	// probe when it ends before the last repair.
	win := tr.DownWindows(8, math.MaxInt64)
	for g, ws := range win {
		for _, w := range ws {
			if w[1] == math.MaxInt64 {
				t.Fatalf("group %d has an unclosed outage", g)
			}
		}
	}
}

// stableGenerate is Generate as it was written with one []int per event
// and a reflection-based stable sort: the reference its replacement must
// reproduce event for event.
func stableGenerate(p GenParams) *Trace {
	r := rand.New(rand.NewSource(p.Seed))
	ttf := dist.Exponential{Mean: p.MTBF}
	ttr := dist.Exponential{Mean: p.MTTR}
	t := &Trace{}
	for g := 0; g < p.Groups; g++ {
		now := int64(0)
		for {
			now += atLeast(ttf.Sample(r), 1)
			if now >= p.Horizon {
				break
			}
			up := now + atLeast(ttr.Sample(r), 1)
			t.Events = append(t.Events,
				Event{Time: now, Kind: Fail, Groups: []int{g}},
				Event{Time: up, Kind: Repair, Groups: []int{g}})
			now = up
		}
	}
	sort.SliceStable(t.Events, func(i, j int) bool {
		a, b := t.Events[i], t.Events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Groups[0] < b.Groups[0]
	})
	return t
}

// TestGenerateKeysUniqueAndStable is the property that lets Generate
// merge its per-group runs without a tie rule beyond (time, kind, group):
// across seeds, group counts and fault densities (including MTTR 0, where
// a repair may share its instant with other groups' events), every
// sampled trace is strictly increasing in that key, so no two events tie
// and the merge yields the stable sort's order. It also checks the result
// against the stable-sort reference event for event, and that appending
// to one event's Groups cannot write into its neighbour's. Beyond the
// grid it covers a thousand groups, MTBF 1 to 3 with MTTR 0 (failures and
// repairs of many groups at one instant), and the faults-malleable shape.
func TestGenerateKeysUniqueAndStable(t *testing.T) {
	check := func(p GenParams) {
		t.Helper()
		got, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := stableGenerate(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: Generate differs from the stable-sort reference", p)
		}
		for i := 1; i < len(got.Events); i++ {
			a, b := got.Events[i-1], got.Events[i]
			if a.Time > b.Time || (a.Time == b.Time && (a.Kind > b.Kind ||
				(a.Kind == b.Kind && a.Groups[0] >= b.Groups[0]))) {
				t.Fatalf("%+v: events %d and %d not strictly ordered: %+v, %+v", p, i-1, i, a, b)
			}
		}
		if len(got.Events) > 1 {
			e := got.Events[0]
			_ = append(e.Groups, -1)
			if got.Events[1].Groups[0] == -1 {
				t.Fatalf("%+v: event Groups windows share capacity", p)
			}
		}
	}
	for _, groups := range []int{1, 2, 3, 10, 64} {
		for _, rates := range [][2]float64{{300, 5000}, {5000, 800}, {2000, 0}, {40000, 2000}} {
			for seed := int64(0); seed < 12; seed++ {
				check(GenParams{Groups: groups, MTBF: rates[0], MTTR: rates[1], Horizon: 50000, Seed: seed})
			}
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		check(GenParams{Groups: 1000, MTBF: 5000, MTTR: 800, Horizon: 50000, Seed: seed})
		for _, mtbf := range []float64{1, 2, 3} {
			check(GenParams{Groups: 64, MTBF: mtbf, MTTR: 0, Horizon: 300, Seed: seed})
		}
		shape := faultsMalleableShape
		shape.Seed = seed
		check(shape)
	}
}

func TestGenerateParamErrors(t *testing.T) {
	cases := []struct {
		p    GenParams
		want error
	}{
		{GenParams{Groups: 0, MTBF: 1, Horizon: 1}, ErrNonPositiveGroups},
		{GenParams{Groups: 1, MTBF: 0, Horizon: 1}, ErrNonPositiveMTBF},
		{GenParams{Groups: 1, MTBF: -3, Horizon: 1}, ErrNonPositiveMTBF},
		{GenParams{Groups: 1, MTBF: 1, MTTR: -1, Horizon: 1}, ErrNegativeMTTR},
		{GenParams{Groups: 1, MTBF: 1, Horizon: 0}, ErrNonPositiveSpan},
	}
	for _, c := range cases {
		if _, err := Generate(c.p); !errors.Is(err, c.want) {
			t.Errorf("Generate(%+v) = %v, want %v", c.p, err, c.want)
		}
	}
}

func TestRetryPolicyValidate(t *testing.T) {
	if err := (RetryPolicy{}).Validate(); err != nil {
		t.Fatalf("zero policy should validate: %v", err)
	}
	cases := []struct {
		p    RetryPolicy
		want error
	}{
		{RetryPolicy{Mode: 9}, ErrUnknownRetryMode},
		{RetryPolicy{Restart: 9}, ErrUnknownRestart},
		{RetryPolicy{MaxRetries: -1}, ErrNegativeRetries},
		{RetryPolicy{Backoff: -5}, ErrNegativeBackoff},
	}
	for _, c := range cases {
		if err := c.p.Validate(); !errors.Is(err, c.want) {
			t.Errorf("Validate(%+v) = %v, want %v", c.p, err, c.want)
		}
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	in := `
# failure of two groups, staggered repair
100 fail 0,3
250 repair 3
400 repair 0
400 fail 7
`
	tr, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 4 {
		t.Fatalf("want 4 events, got %d", len(tr.Events))
	}
	if g := tr.Events[0].Groups; len(g) != 2 || g[0] != 0 || g[1] != 3 {
		t.Fatalf("bad groups: %v", g)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(back.Events), len(tr.Events))
	}
	for i := range back.Events {
		a, b := tr.Events[i], back.Events[i]
		if a.Time != b.Time || a.Kind != b.Kind || len(a.Groups) != len(b.Groups) {
			t.Fatalf("event %d differs after round trip: %+v vs %+v", i, a, b)
		}
	}
}

// TestWriteParseRoundTripProperty is the round-trip property over sampled
// traces: for many parameter corners, Write followed by Parse must
// reproduce every event exactly.
func TestWriteParseRoundTripProperty(t *testing.T) {
	cases := []GenParams{
		{Groups: 1, MTBF: 200, MTTR: 50, Horizon: 10000, Seed: 1},
		{Groups: 4, MTBF: 1000, MTTR: 0, Horizon: 50000, Seed: 2}, // MTTR 0: instant repairs
		{Groups: 10, MTBF: 5000, MTTR: 800, Horizon: 100000, Seed: 3},
		{Groups: 32, MTBF: 300, MTTR: 9000, Horizon: 20000, Seed: 4}, // repairs dominate
		{Groups: 10, MTBF: 1e9, MTTR: 1, Horizon: 1000, Seed: 5},     // likely empty
	}
	for _, p := range cases {
		tr, err := Generate(p)
		if err != nil {
			t.Fatalf("Generate(%+v): %v", p, err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write(%+v): %v", p, err)
		}
		back, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse(%+v): %v\n%s", p, err, buf.String())
		}
		if len(back.Events) != len(tr.Events) {
			t.Fatalf("params %+v: round trip lost events: %d vs %d", p, len(back.Events), len(tr.Events))
		}
		for i := range back.Events {
			a, b := tr.Events[i], back.Events[i]
			if a.Time != b.Time || a.Kind != b.Kind {
				t.Fatalf("params %+v: event %d differs: %+v vs %+v", p, i, a, b)
			}
			if len(a.Groups) != len(b.Groups) {
				t.Fatalf("params %+v: event %d group count differs: %v vs %v", p, i, a.Groups, b.Groups)
			}
			for gi := range a.Groups {
				if a.Groups[gi] != b.Groups[gi] {
					t.Fatalf("params %+v: event %d groups differ: %v vs %v", p, i, a.Groups, b.Groups)
				}
			}
		}
	}
}

// TestRoundTripEdgeCases pins the written format on the trace shapes that
// stress the parser: a zero-length outage (repair at the failure instant)
// and back-to-back outages on the same group.
func TestRoundTripEdgeCases(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Time: 100, Kind: Fail, Groups: []int{2}},
		{Time: 100, Kind: Repair, Groups: []int{2}}, // zero-length repair
		{Time: 100, Kind: Fail, Groups: []int{2}},   // back-to-back on the same group
		{Time: 150, Kind: Repair, Groups: []int{2}},
	}}
	if err := tr.Validate(4); err != nil {
		t.Fatalf("edge trace invalid before round trip: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(back.Events) != 4 {
		t.Fatalf("want 4 events, got %d", len(back.Events))
	}
	for i := range back.Events {
		a, b := tr.Events[i], back.Events[i]
		if a.Time != b.Time || a.Kind != b.Kind || a.Groups[0] != b.Groups[0] {
			t.Fatalf("event %d differs after round trip: %+v vs %+v", i, a, b)
		}
	}
	// The zero-length outage and the immediate re-failure collapse into
	// one continuous down window ending at the final repair.
	win := back.DownWindows(4, 1000)
	if len(win[2]) != 1 || win[2][0] != [2]int64{100, 150} {
		t.Fatalf("group 2 windows = %v", win[2])
	}
}

func TestParseCheckpointPolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want CheckpointPolicy
	}{
		{"", CheckpointNone},
		{"none", CheckpointNone},
		{"periodic", CheckpointPeriodic},
		{"on-resize", CheckpointOnResize},
		{"daly", CheckpointDaly},
	} {
		got, err := ParseCheckpointPolicy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseCheckpointPolicy(%q) = (%v, %v), want %v", c.in, got, err, c.want)
		}
		if c.in != "" && got.String() != c.in {
			t.Errorf("String() = %q, want %q", got.String(), c.in)
		}
	}
	if _, err := ParseCheckpointPolicy("hourly"); !errors.Is(err, ErrUnknownCheckpointPolicy) {
		t.Errorf("ParseCheckpointPolicy(hourly) = %v, want ErrUnknownCheckpointPolicy", err)
	}
}

func TestDalyInterval(t *testing.T) {
	// sqrt(2 * 20000 * 120) = sqrt(4.8e6) = 2190.89... floored.
	if got := DalyInterval(20000, 120); got != 2190 {
		t.Errorf("DalyInterval(20000, 120) = %d, want 2190", got)
	}
	if got := DalyInterval(0.001, 1); got != 1 {
		t.Errorf("tiny MTBF must clamp to 1, got %d", got)
	}
}

func TestValidateCheckpoint(t *testing.T) {
	cases := []struct {
		name   string
		policy CheckpointPolicy
		ivl, c int64
		mtbf   float64
		want   error
	}{
		{"none ok", CheckpointNone, 0, 0, 0, nil},
		{"periodic ok", CheckpointPeriodic, 600, 30, 0, nil},
		{"on-resize ok", CheckpointOnResize, 0, 30, 0, nil},
		{"daly ok", CheckpointDaly, 0, 30, 40000, nil},
		{"unknown policy", CheckpointPolicy(9), 0, 0, 0, ErrUnknownCheckpointPolicy},
		{"negative cost", CheckpointPeriodic, 600, -1, 0, ErrNegativeCheckpointCost},
		{"periodic zero interval", CheckpointPeriodic, 0, 30, 0, ErrNonPositiveInterval},
		{"periodic negative interval", CheckpointPeriodic, -5, 30, 0, ErrNonPositiveInterval},
		{"interval without periodic", CheckpointNone, 600, 0, 0, ErrIntervalWithoutPeriodic},
		{"interval with daly", CheckpointDaly, 600, 30, 40000, ErrIntervalWithoutPeriodic},
		{"daly zero cost", CheckpointDaly, 0, 0, 40000, ErrDalyNeedsCost},
		{"daly no mtbf", CheckpointDaly, 0, 30, 0, ErrDalyNeedsMTBF},
		{"daly NaN mtbf", CheckpointDaly, 0, 30, math.NaN(), ErrDalyNeedsMTBF},
	}
	for _, c := range cases {
		err := ValidateCheckpoint(c.policy, c.ivl, c.c, c.mtbf)
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: ValidateCheckpoint = %v, want nil", c.name, err)
			}
		} else if !errors.Is(err, c.want) {
			t.Errorf("%s: ValidateCheckpoint = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"abc fail 0",
		"10 explode 0",
		"10 fail x",
		"10 fail",
		"10 fail 0 extra junk",
		"-5 fail 0",
		"10 fail -1",
		"100 fail 0\n50 repair 0", // time went backwards
	}
	for _, s := range bad {
		if _, err := Parse(strings.NewReader(s)); !errors.Is(err, ErrMalformedTrace) {
			t.Errorf("Parse(%q) = %v, want ErrMalformedTrace", s, err)
		}
	}
}

func TestValidateBounds(t *testing.T) {
	tr := &Trace{Events: []Event{{Time: 5, Kind: Fail, Groups: []int{10}}}}
	if err := tr.Validate(10); !errors.Is(err, ErrGroupOutOfRange) {
		t.Fatalf("want ErrGroupOutOfRange, got %v", err)
	}
	tr = &Trace{Events: []Event{{Time: 5, Kind: Fail, Groups: nil}}}
	if err := tr.Validate(10); !errors.Is(err, ErrMalformedTrace) {
		t.Fatalf("want ErrMalformedTrace for empty groups, got %v", err)
	}
}

func TestLintFindsInversions(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Time: 10, Kind: Repair, Groups: []int{2}},
		{Time: 20, Kind: Fail, Groups: []int{2}},
		{Time: 30, Kind: Fail, Groups: []int{2}},
	}}
	issues := tr.Lint(4)
	if len(issues) != 2 {
		t.Fatalf("want 2 lint issues, got %v", issues)
	}
	if !strings.Contains(issues[0], "no preceding failure") {
		t.Errorf("issue 0 = %q", issues[0])
	}
	if !strings.Contains(issues[1], "already down") {
		t.Errorf("issue 1 = %q", issues[1])
	}
}

func TestDownWindows(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Time: 10, Kind: Fail, Groups: []int{0, 1}},
		{Time: 30, Kind: Repair, Groups: []int{0}},
		{Time: 50, Kind: Fail, Groups: []int{0}},
	}}
	win := tr.DownWindows(2, 100)
	if len(win[0]) != 2 || win[0][0] != [2]int64{10, 30} || win[0][1] != [2]int64{50, 100} {
		t.Fatalf("group 0 windows = %v", win[0])
	}
	if len(win[1]) != 1 || win[1][0] != [2]int64{10, 100} {
		t.Fatalf("group 1 windows = %v", win[1])
	}
}

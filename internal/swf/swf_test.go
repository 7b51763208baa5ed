package swf

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const sample = `; Version: 2.2
; MaxNodes: 128
1 0 -1 100 4 -1 -1 4 120 -1 1 1 1 -1 1 -1 -1 -1
2 50 10 200 8 -1 -1 8 250 -1 1 2 1 -1 1 -1 -1 -1
3 90 -1 50 1 -1 -1 -1 -1 -1 0 3 2 -1 2 -1 -1 -1
`

func TestParseSample(t *testing.T) {
	log, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Header) != 2 {
		t.Errorf("header lines = %d, want 2", len(log.Header))
	}
	if log.Header[1] != "MaxNodes: 128" {
		t.Errorf("header[1] = %q", log.Header[1])
	}
	if len(log.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(log.Records))
	}
	r := log.Records[1]
	if r.JobID != 2 || r.SubmitTime != 50 || r.WaitTime != 10 || r.RunTime != 200 ||
		r.UsedProcs != 8 || r.ReqProcs != 8 || r.ReqTime != 250 || r.UserID != 2 {
		t.Errorf("record 2 parsed wrong: %+v", r)
	}
}

func TestParseSkipsBlankLines(t *testing.T) {
	log, err := Parse(strings.NewReader("\n\n" + sample + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != 3 {
		t.Errorf("records = %d, want 3", len(log.Records))
	}
}

func TestParseTooFewFields(t *testing.T) {
	if _, err := Parse(strings.NewReader("1 2 3\n")); err == nil {
		t.Error("short line accepted")
	}
}

func TestParseBadNumber(t *testing.T) {
	bad := strings.Replace(sample, "200", "abc", 1)
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Error("non-numeric field accepted")
	}
}

func TestParseFloatFieldsTruncate(t *testing.T) {
	// Some archive logs carry float fields (e.g. average CPU time).
	line := "1 0 -1 100.7 4 12.5 -1 4 120 -1 1 1 1 -1 1 -1 -1 -1"
	log, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if log.Records[0].RunTime != 100 || log.Records[0].AvgCPUTime != 12 {
		t.Errorf("float truncation wrong: %+v", log.Records[0])
	}
}

func TestProcessorsPrefersRequested(t *testing.T) {
	r := NewRecord(1)
	r.UsedProcs = 4
	if r.Processors() != 4 {
		t.Error("should fall back to used procs")
	}
	r.ReqProcs = 8
	if r.Processors() != 8 {
		t.Error("should prefer requested procs")
	}
}

func TestEstimatePrefersRequestedTime(t *testing.T) {
	r := NewRecord(1)
	r.RunTime = 100
	if r.Estimate() != 100 {
		t.Error("should fall back to runtime")
	}
	r.ReqTime = 150
	if r.Estimate() != 150 {
		t.Error("should prefer requested time")
	}
}

func TestNewRecordAllUnknown(t *testing.T) {
	r := NewRecord(5)
	f := r.Fields()
	if f[0] != 5 {
		t.Errorf("field 1 = %d, want 5", f[0])
	}
	for i := 1; i < 18; i++ {
		if f[i] != Unknown {
			t.Errorf("field %d = %d, want -1", i+1, f[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	log, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	log2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(log2.Records) != len(log.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(log2.Records), len(log.Records))
	}
	for i := range log.Records {
		if log.Records[i] != log2.Records[i] {
			t.Errorf("record %d changed: %+v vs %+v", i, log.Records[i], log2.Records[i])
		}
	}
	if len(log2.Header) != len(log.Header) {
		t.Errorf("header changed: %v vs %v", log2.Header, log.Header)
	}
}

func TestScaleArrivals(t *testing.T) {
	log, _ := Parse(strings.NewReader(sample))
	ScaleArrivals(log, 2.0)
	if log.Records[0].SubmitTime != 0 || log.Records[1].SubmitTime != 100 || log.Records[2].SubmitTime != 180 {
		t.Errorf("scaled submits wrong: %d %d %d",
			log.Records[0].SubmitTime, log.Records[1].SubmitTime, log.Records[2].SubmitTime)
	}
}

func TestScaleArrivalsSkipsUnknown(t *testing.T) {
	log := &Log{Records: []Record{NewRecord(1)}}
	ScaleArrivals(log, 2.0)
	if log.Records[0].SubmitTime != Unknown {
		t.Error("unknown submit time was scaled")
	}
}

func TestParseArchiveSampleFile(t *testing.T) {
	f, err := os.Open("testdata/sample.swf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != 12 {
		t.Fatalf("parsed %d records, want 12", len(log.Records))
	}
	if len(log.Header) != 6 {
		t.Errorf("parsed %d header lines, want 6", len(log.Header))
	}
	// Spot-check the biggest job.
	r := log.Records[9]
	if r.JobID != 10 || r.ReqProcs != 128 || r.RunTime != 10800 || r.WaitTime != 40 {
		t.Errorf("record 10 wrong: %+v", r)
	}
	// Estimates differ from runtimes in this log (real-log property).
	if log.Records[0].Estimate() == log.Records[0].RunTime {
		t.Error("job 1 should have estimate != runtime")
	}
}

func TestHeaderField(t *testing.T) {
	log, _ := Parse(strings.NewReader(sample))
	if got := FieldFromHeader(log.Header, "MaxNodes"); got != "128" {
		t.Errorf("FieldFromHeader(MaxNodes) = %q, want 128", got)
	}
	if got := FieldFromHeader(log.Header, "maxnodes"); got != "128" {
		t.Errorf("case-insensitive lookup failed: %q", got)
	}
	if got := FieldFromHeader(log.Header, "Nope"); got != "" {
		t.Errorf("absent field = %q", got)
	}
}

func TestMaxNodes(t *testing.T) {
	log, _ := Parse(strings.NewReader(sample))
	if got := log.MaxNodes(); got != 128 {
		t.Errorf("MaxNodes = %d, want 128", got)
	}
	// MaxProcs takes precedence when both are present.
	both := "; MaxNodes: 64\n; MaxProcs: 512\n" + "1 0 -1 10 4 -1 -1 4 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	log2, _ := Parse(strings.NewReader(both))
	if got := log2.MaxNodes(); got != 512 {
		t.Errorf("MaxProcs precedence failed: %d", got)
	}
	empty := &Log{}
	if empty.MaxNodes() != 0 {
		t.Error("no header should give 0")
	}
}

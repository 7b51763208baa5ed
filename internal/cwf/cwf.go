// Package cwf implements the paper's Cloud Workload Format (CWF, Figure 4):
// the Standard Workload Format extended with three fields that carry
// heterogeneous requests and runtime elasticity.
//
//	field 19: Requested Start Time — rigid start for dedicated/interactive
//	          jobs; -1 for batch jobs.
//	field 20: Request Type — S (submission), ET/RT (time extension/
//	          reduction), EP/RP (processor extension/reduction).
//	field 21: Extension/Reduction Amount — seconds for ET/RT, processors
//	          for EP/RP; -1 for submissions.
//
// ET/RT/EP/RP lines are Elastic Control Commands (ECCs): they reference a
// previously submitted job by its Job ID and request an on-the-fly change
// to its execution-time (or, as the paper's future-work extension, size)
// requirement. Field 2 of an ECC line is the command's issue time.
package cwf

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"elastisched/internal/job"
	"elastisched/internal/swf"
)

// ReqType is CWF field 20.
type ReqType uint8

// Request types.
const (
	Submit     ReqType = iota // S: usual job submission
	ExtendTime                // ET: execution-time extension
	ReduceTime                // RT: execution-time reduction
	ExtendProc                // EP: processor extension (paper future work)
	ReduceProc                // RP: processor reduction (paper future work)
)

// String returns the CWF field-20 token.
func (t ReqType) String() string {
	switch t {
	case Submit:
		return "S"
	case ExtendTime:
		return "ET"
	case ReduceTime:
		return "RT"
	case ExtendProc:
		return "EP"
	case ReduceProc:
		return "RP"
	default:
		return fmt.Sprintf("ReqType(%d)", uint8(t))
	}
}

// ParseReqType parses a field-20 token.
func ParseReqType(s string) (ReqType, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "S":
		return Submit, nil
	case "ET":
		return ExtendTime, nil
	case "RT":
		return ReduceTime, nil
	case "EP":
		return ExtendProc, nil
	case "RP":
		return ReduceProc, nil
	default:
		return 0, fmt.Errorf("cwf: unknown request type %q", s)
	}
}

// IsECC reports whether the type is an Elastic Control Command (not a
// submission).
func (t ReqType) IsECC() bool { return t != Submit }

// Record is one CWF line: an SWF record plus fields 19-21, and the optional
// malleability bounds of fields 22-23.
type Record struct {
	swf.Record
	ReqStartTime int64   // 19: -1 for batch jobs
	Type         ReqType // 20
	Amount       int64   // 21: -1 for submissions
	// MinProcs and MaxProcs are the optional fields 22-23: the submission's
	// malleable processor bounds. Both zero (the fields absent) means the
	// job is rigid, so 18- and 21-field archives load unchanged.
	MinProcs int
	MaxProcs int
}

// Command is a parsed Elastic Control Command.
type Command struct {
	JobID  int
	Issue  int64 // when the user issues the command (field 2)
	Type   ReqType
	Amount int64 // seconds (ET/RT) or processors (EP/RP), > 0
}

// String renders the command compactly.
func (c Command) String() string {
	return fmt.Sprintf("ecc{job=%d t=%d %s %d}", c.JobID, c.Issue, c.Type, c.Amount)
}

// Workload is a parsed CWF file split into job submissions and the elastic
// control command stream, both in issue order.
type Workload struct {
	Header   []string
	Jobs     []*job.Job
	Commands []Command
}

// NumBatch returns the number of batch submissions.
func (w *Workload) NumBatch() int {
	n := 0
	for _, j := range w.Jobs {
		if j.Class == job.Batch {
			n++
		}
	}
	return n
}

// NumDedicated returns the number of dedicated submissions.
func (w *Workload) NumDedicated() int { return len(w.Jobs) - w.NumBatch() }

// MaxNodes returns the machine size declared in the trace header
// (MaxProcs/MaxNodes), or 0 when undeclared.
func (w *Workload) MaxNodes() int { return swf.MaxNodesFromHeader(w.Header) }

// SizeCommandCount returns the number of EP/RP (size elasticity) commands.
func (w *Workload) SizeCommandCount() int {
	n := 0
	for _, c := range w.Commands {
		if c.Type == ExtendProc || c.Type == ReduceProc {
			n++
		}
	}
	return n
}

// Validate checks all jobs against machine size m and that every command
// references a submitted job and has a positive amount. For jobs carrying
// explicit malleability bounds, EP/RP commands whose amount would push the
// submitted size outside [MinProcs, MaxProcs] are rejected up front — for
// unbounded jobs out-of-range elasticity stays a simulate-time concern (the
// engine clamps against the machine), preserving prior behaviour.
//
// When job IDs strictly increase, as every generated workload's do, the
// commands' jobs are found by binary search and Validate allocates
// nothing; otherwise a map indexes the jobs. Both paths report the same
// first error.
func (w *Workload) Validate(m int) error {
	var ids map[int]*job.Job // nil while IDs strictly increase
	for i, j := range w.Jobs {
		if err := j.Validate(m); err != nil {
			return err
		}
		if ids == nil && (i == 0 || j.ID > w.Jobs[i-1].ID) {
			continue
		}
		if ids == nil {
			ids = make(map[int]*job.Job, len(w.Jobs))
			for _, p := range w.Jobs[:i] {
				ids[p.ID] = p
			}
		}
		if ids[j.ID] != nil {
			return fmt.Errorf("cwf: duplicate submission for job %d", j.ID)
		}
		ids[j.ID] = j
	}
	for _, c := range w.Commands {
		var j *job.Job
		if ids != nil {
			j = ids[c.JobID]
		} else if k, ok := slices.BinarySearchFunc(w.Jobs, c.JobID, func(j *job.Job, id int) int {
			return cmp.Compare(j.ID, id)
		}); ok {
			j = w.Jobs[k]
		}
		if j == nil {
			return fmt.Errorf("cwf: %v references unknown job", c)
		}
		if c.Amount <= 0 {
			return fmt.Errorf("cwf: %v has non-positive amount", c)
		}
		if !c.Type.IsECC() {
			return fmt.Errorf("cwf: %v is not an ECC", c)
		}
		if j.MaxProcs > 0 {
			switch c.Type {
			case ExtendProc:
				if int64(j.Size)+c.Amount > int64(j.MaxProcs) {
					return fmt.Errorf("cwf: %v grows job %d beyond its max procs %d (size %d)",
						c, j.ID, j.MaxProcs, j.Size)
				}
			case ReduceProc:
				if int64(j.Size)-c.Amount < int64(j.MinProcs) {
					return fmt.Errorf("cwf: %v shrinks job %d below its min procs %d (size %d)",
						c, j.ID, j.MinProcs, j.Size)
				}
			}
		}
	}
	return nil
}

// ParseLine parses a 21-field CWF line. 18-field lines are accepted as plain
// SWF submissions (batch, no ECC), so archive logs load unchanged; 23-field
// lines additionally carry the malleability bounds (fields 22-23).
func ParseLine(line string) (Record, error) {
	tok := strings.Fields(line)
	base, err := swf.ParseFields(tok)
	if err != nil {
		return Record{}, err
	}
	rec := Record{Record: base, ReqStartTime: -1, Type: Submit, Amount: -1}
	if len(tok) == 18 {
		return rec, nil
	}
	if len(tok) != 21 && len(tok) != 23 {
		return Record{}, fmt.Errorf("cwf: %d fields, want 18 (SWF), 21 (CWF) or 23 (CWF+bounds)", len(tok))
	}
	rst, err := strconv.ParseInt(tok[18], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("cwf: field 19 %q: %v", tok[18], err)
	}
	rec.ReqStartTime = rst
	rec.Type, err = ParseReqType(tok[19])
	if err != nil {
		return Record{}, err
	}
	amt, err := strconv.ParseInt(tok[20], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("cwf: field 21 %q: %v", tok[20], err)
	}
	rec.Amount = amt
	if len(tok) == 23 {
		mn, err := strconv.Atoi(tok[21])
		if err != nil {
			return Record{}, fmt.Errorf("cwf: field 22 %q: %v", tok[21], err)
		}
		mx, err := strconv.Atoi(tok[22])
		if err != nil {
			return Record{}, fmt.Errorf("cwf: field 23 %q: %v", tok[22], err)
		}
		rec.MinProcs, rec.MaxProcs = mn, mx
	}
	return rec, nil
}

// FormatLine renders a record as a CWF line: 21 fields, or 23 when the
// record carries malleability bounds (so bound-free workloads round-trip
// byte-identically with the pre-bounds format).
func FormatLine(r Record) string {
	fields := r.Fields()
	parts := make([]string, 0, 23)
	for _, f := range fields {
		parts = append(parts, strconv.FormatInt(f, 10))
	}
	parts = append(parts,
		strconv.FormatInt(r.ReqStartTime, 10),
		r.Type.String(),
		strconv.FormatInt(r.Amount, 10))
	if r.MaxProcs > 0 {
		parts = append(parts, strconv.Itoa(r.MinProcs), strconv.Itoa(r.MaxProcs))
	}
	return strings.Join(parts, " ")
}

// Parse reads a CWF stream into a Workload. Submission lines become jobs;
// ET/RT/EP/RP lines become commands. Jobs are ordered by arrival and
// commands by issue time, matching the FCFS elastic control queue.
func Parse(r io.Reader) (*Workload, error) {
	w := &Workload{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			w.Header = append(w.Header, strings.TrimSpace(strings.TrimPrefix(line, ";")))
			continue
		}
		rec, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if rec.Type.IsECC() {
			w.Commands = append(w.Commands, Command{
				JobID: rec.JobID, Issue: rec.SubmitTime, Type: rec.Type, Amount: rec.Amount,
			})
			continue
		}
		w.Jobs = append(w.Jobs, RecordToJob(rec))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	w.Sort()
	return w, nil
}

// RecordToJob converts a submission record to the scheduler job model. The
// user estimate (field 9) becomes the planning duration; the recorded
// actual runtime (field 4), when it differs, becomes the job's true
// execution time — so archive replays get genuine estimate inaccuracy.
func RecordToJob(rec Record) *job.Job {
	j := &job.Job{
		ID:       rec.JobID,
		Size:     rec.Processors(),
		Dur:      rec.Estimate(),
		Arrival:  rec.SubmitTime,
		ReqStart: -1,
		Class:    job.Batch,
	}
	if rec.RunTime > 0 && rec.RunTime != j.Dur {
		j.Actual = rec.RunTime
	}
	if rec.ReqStartTime >= 0 {
		j.Class = job.Dedicated
		j.ReqStart = rec.ReqStartTime
	}
	if rec.MaxProcs > 0 {
		j.MinProcs = rec.MinProcs
		j.MaxProcs = rec.MaxProcs
	}
	return j
}

// JobToRecord converts a job back to a CWF submission record.
func JobToRecord(j *job.Job) Record {
	base := swf.NewRecord(j.ID)
	base.SubmitTime = j.Arrival
	base.RunTime = j.Dur
	if j.Actual > 0 {
		base.RunTime = j.Actual
	}
	base.ReqTime = j.Dur
	base.ReqProcs = j.Size
	base.UsedProcs = j.Size
	base.Status = 1
	rec := Record{Record: base, ReqStartTime: -1, Type: Submit, Amount: -1}
	if j.Class == job.Dedicated {
		rec.ReqStartTime = j.ReqStart
	}
	if j.MaxProcs > 0 {
		rec.MinProcs = j.MinProcs
		rec.MaxProcs = j.MaxProcs
	}
	return rec
}

// Sort orders jobs by (arrival, ID) and commands by (issue, jobID), the
// orders in which the engine injects them.
func (w *Workload) Sort() {
	sort.SliceStable(w.Jobs, func(i, k int) bool {
		if w.Jobs[i].Arrival != w.Jobs[k].Arrival {
			return w.Jobs[i].Arrival < w.Jobs[k].Arrival
		}
		return w.Jobs[i].ID < w.Jobs[k].ID
	})
	sort.SliceStable(w.Commands, func(i, k int) bool {
		if w.Commands[i].Issue != w.Commands[k].Issue {
			return w.Commands[i].Issue < w.Commands[k].Issue
		}
		return w.Commands[i].JobID < w.Commands[k].JobID
	})
}

// Write emits the workload as CWF text: header, submissions and ECCs merged
// in time order.
func Write(w io.Writer, wl *Workload) error {
	bw := bufio.NewWriter(w)
	for _, h := range wl.Header {
		if _, err := fmt.Fprintf(bw, "; %s\n", h); err != nil {
			return err
		}
	}
	type line struct {
		t    int64
		id   int
		text string
	}
	lines := make([]line, 0, len(wl.Jobs)+len(wl.Commands))
	for _, j := range wl.Jobs {
		lines = append(lines, line{j.Arrival, j.ID, FormatLine(JobToRecord(j))})
	}
	for _, c := range wl.Commands {
		base := swf.NewRecord(c.JobID)
		base.SubmitTime = c.Issue
		rec := Record{Record: base, ReqStartTime: -1, Type: c.Type, Amount: c.Amount}
		lines = append(lines, line{c.Issue, c.JobID, FormatLine(rec)})
	}
	sort.SliceStable(lines, func(i, k int) bool {
		if lines[i].t != lines[k].t {
			return lines[i].t < lines[k].t
		}
		return lines[i].id < lines[k].id
	})
	for _, l := range lines {
		if _, err := fmt.Fprintln(bw, l.text); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FromSWF wraps a plain SWF log as a CWF workload with no dedicated jobs
// and no ECCs.
func FromSWF(log *swf.Log) *Workload {
	w := &Workload{Header: log.Header}
	for _, rec := range log.Records {
		if rec.Processors() <= 0 || rec.Estimate() <= 0 || rec.SubmitTime < 0 {
			continue // incomplete archive lines are conventionally skipped
		}
		w.Jobs = append(w.Jobs, RecordToJob(Record{Record: rec, ReqStartTime: -1, Type: Submit, Amount: -1}))
	}
	w.Sort()
	return w
}

// Load returns the offered load of the workload on a machine of size m,
// using the paper's definition: sum over jobs of size*runtime, divided by
// the workload's duration (first arrival to last possible completion) times
// the machine size.
func (w *Workload) Load(m int) float64 {
	if len(w.Jobs) == 0 || m <= 0 {
		return 0
	}
	var area float64
	first := w.Jobs[0].Arrival
	last := first
	for _, j := range w.Jobs {
		area += float64(j.Size) * float64(j.EffectiveRuntime())
		end := j.Arrival + j.Dur
		if j.Class == job.Dedicated && j.ReqStart > j.Arrival {
			end = j.ReqStart + j.Dur
		}
		if end > last {
			last = end
		}
		if j.Arrival < first {
			first = j.Arrival
		}
	}
	dur := float64(last - first)
	if dur <= 0 {
		return 0
	}
	return area / (dur * float64(m))
}

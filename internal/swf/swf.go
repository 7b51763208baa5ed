// Package swf reads and writes the Standard Workload Format (SWF) of the
// Parallel Workloads Archive: one job per line, 18 whitespace-separated
// numeric fields, with ';' header/comment lines. Unknown or unavailable
// values are -1 by convention.
//
// The paper's Cloud Workload Format (package cwf) extends SWF with three
// fields for runtime elasticity; this package handles the classic 18-field
// core so real archive logs can be replayed directly.
package swf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Record is one SWF job line. Field numbering follows the SWF definition
// (fields 1-18).
type Record struct {
	JobID          int   // 1
	SubmitTime     int64 // 2: seconds from log start
	WaitTime       int64 // 3
	RunTime        int64 // 4: actual runtime
	UsedProcs      int   // 5: allocated processors
	AvgCPUTime     int64 // 6
	UsedMemory     int64 // 7
	ReqProcs       int   // 8: requested processors
	ReqTime        int64 // 9: user runtime estimate
	ReqMemory      int64 // 10
	Status         int   // 11
	UserID         int   // 12
	GroupID        int   // 13
	ExecutableID   int   // 14
	QueueID        int   // 15
	PartitionID    int   // 16
	PrecedingJobID int   // 17
	ThinkTime      int64 // 18
}

// Unknown is the SWF convention for a missing value.
const Unknown = -1

// NewRecord returns a record with every field set to Unknown except JobID.
func NewRecord(id int) Record {
	return Record{
		JobID: id, SubmitTime: Unknown, WaitTime: Unknown, RunTime: Unknown,
		UsedProcs: Unknown, AvgCPUTime: Unknown, UsedMemory: Unknown,
		ReqProcs: Unknown, ReqTime: Unknown, ReqMemory: Unknown,
		Status: Unknown, UserID: Unknown, GroupID: Unknown,
		ExecutableID: Unknown, QueueID: Unknown, PartitionID: Unknown,
		PrecedingJobID: Unknown, ThinkTime: Unknown,
	}
}

// Processors returns the job's processor demand, preferring the requested
// count and falling back to the used count, as schedulers conventionally do
// when replaying archive logs.
func (r Record) Processors() int {
	if r.ReqProcs > 0 {
		return r.ReqProcs
	}
	return r.UsedProcs
}

// Estimate returns the user runtime estimate, falling back to the actual
// runtime when no estimate was recorded.
func (r Record) Estimate() int64 {
	if r.ReqTime > 0 {
		return r.ReqTime
	}
	return r.RunTime
}

// Fields returns the record's 18 fields in SWF order.
func (r Record) Fields() []int64 {
	return []int64{
		int64(r.JobID), r.SubmitTime, r.WaitTime, r.RunTime,
		int64(r.UsedProcs), r.AvgCPUTime, r.UsedMemory,
		int64(r.ReqProcs), r.ReqTime, r.ReqMemory,
		int64(r.Status), int64(r.UserID), int64(r.GroupID),
		int64(r.ExecutableID), int64(r.QueueID), int64(r.PartitionID),
		int64(r.PrecedingJobID), r.ThinkTime,
	}
}

// Log is a parsed SWF file: header comments plus job records.
type Log struct {
	Header  []string // header comment lines without the leading ';'
	Records []Record
}

// MaxNodes returns the machine size declared in the archive header
// (MaxProcs preferred, falling back to MaxNodes), or 0 when the log does
// not declare one. Replay tools use it to size the simulated machine.
func (l *Log) MaxNodes() int { return MaxNodesFromHeader(l.Header) }

// FieldFromHeader extracts a "Name: value" entry from header lines
// (case-insensitive on the name), or "" if absent.
func FieldFromHeader(header []string, name string) string {
	prefix := strings.ToLower(name) + ":"
	for _, h := range header {
		if len(h) > len(prefix) && strings.HasPrefix(strings.ToLower(h), prefix) {
			return strings.TrimSpace(h[len(prefix):])
		}
	}
	return ""
}

// MaxNodesFromHeader returns the declared machine size (MaxProcs preferred,
// then MaxNodes), or 0.
func MaxNodesFromHeader(header []string) int {
	for _, key := range []string{"MaxProcs", "MaxNodes"} {
		if v := FieldFromHeader(header, key); v != "" {
			if n, err := strconv.Atoi(strings.Fields(v)[0]); err == nil && n > 0 {
				return n
			}
		}
	}
	return 0
}

// ParseFields fills a record from at least 18 numeric tokens.
func ParseFields(tok []string) (Record, error) {
	if len(tok) < 18 {
		return Record{}, fmt.Errorf("swf: %d fields, want >= 18", len(tok))
	}
	var v [18]int64
	for i := 0; i < 18; i++ {
		f, err := strconv.ParseFloat(tok[i], 64)
		if err != nil {
			return Record{}, fmt.Errorf("swf: field %d %q: %v", i+1, tok[i], err)
		}
		v[i] = int64(f)
	}
	return Record{
		JobID: int(v[0]), SubmitTime: v[1], WaitTime: v[2], RunTime: v[3],
		UsedProcs: int(v[4]), AvgCPUTime: v[5], UsedMemory: v[6],
		ReqProcs: int(v[7]), ReqTime: v[8], ReqMemory: v[9],
		Status: int(v[10]), UserID: int(v[11]), GroupID: int(v[12]),
		ExecutableID: int(v[13]), QueueID: int(v[14]), PartitionID: int(v[15]),
		PrecedingJobID: int(v[16]), ThinkTime: v[17],
	}, nil
}

// Parse reads an SWF stream.
func Parse(r io.Reader) (*Log, error) {
	log := &Log{}
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
			log.Header = append(log.Header, strings.TrimSpace(strings.TrimPrefix(line, ";")))
			continue
		}
		rec, err := ParseFields(strings.Fields(line))
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		log.Records = append(log.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return log, nil
}

// Write emits the log in SWF text form.
func Write(w io.Writer, log *Log) error {
	bw := bufio.NewWriter(w)
	for _, h := range log.Header {
		if _, err := fmt.Fprintf(bw, "; %s\n", h); err != nil {
			return err
		}
	}
	for _, rec := range log.Records {
		if err := writeFields(bw, rec.Fields()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeFields(w io.Writer, fields []int64) error {
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = strconv.FormatInt(f, 10)
	}
	_, err := fmt.Fprintln(w, strings.Join(parts, " "))
	return err
}

// ScaleArrivals multiplies every submit time by factor, the load-variation
// technique of Shmueli & Feitelson (and the paper's Figure 1): stretching
// inter-arrival gaps lowers the offered load, compressing them raises it.
func ScaleArrivals(log *Log, factor float64) {
	for i := range log.Records {
		if log.Records[i].SubmitTime >= 0 {
			log.Records[i].SubmitTime = int64(float64(log.Records[i].SubmitTime) * factor)
		}
	}
}

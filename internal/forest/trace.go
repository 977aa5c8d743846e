package forest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"treesched/internal/portfolio"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

// Job is one line of a forest trace: a tree arriving at a point in time,
// with an optional per-job planning directive. Exactly one of Tree and
// TreeText must be set.
type Job struct {
	// ID is an opaque tag echoed in the JobResult.
	ID string `json:"id,omitempty"`
	// Arrival is the job's arrival time (>= 0). Jobs may appear in any
	// order in the trace; the engine sorts by (arrival, trace index).
	Arrival float64 `json:"arrival"`
	// Weight is the job's share under the weighted_fair policy (> 0;
	// 0 means 1).
	Weight float64 `json:"weight,omitempty"`
	// Procs is the job's planning width: its standalone plan targets this
	// many processors and the engine never runs more of its tasks
	// concurrently. 0 or anything above the machine size means the full
	// machine.
	Procs int `json:"p,omitempty"`
	// Heuristic plans the job with a single named scheduler; Auto (or a
	// non-nil Objective) plans it with a portfolio race instead. Absent
	// means the engine's default heuristic.
	Heuristic *sched.HeuristicID `json:"heuristic,omitempty"`
	// Objective switches the job's planning into portfolio mode and
	// selects the plan among the raced candidates.
	Objective *portfolio.Objective `json:"objective,omitempty"`
	// MemCapFactor parameterizes the capped heuristics when one is named.
	MemCapFactor float64 `json:"mem_cap_factor,omitempty"`
	// Tree is the task tree in JSON form; TreeText the textual treegen
	// format.
	Tree     *tree.Tree `json:"tree,omitempty"`
	TreeText string     `json:"tree_text,omitempty"`
}

// resolveTree returns the job's tree, decoding TreeText when necessary
// (DecodeTrace has already resolved the jobs it returns).
func (j *Job) resolveTree() (*tree.Tree, error) {
	switch {
	case j.Tree != nil && j.TreeText != "":
		return nil, errors.New("exactly one of tree and tree_text must be set, got both")
	case j.Tree != nil:
		return j.Tree, nil
	case j.TreeText != "":
		return tree.Decode(strings.NewReader(j.TreeText))
	}
	return nil, errors.New("one of tree and tree_text is required")
}

// DecodeLimits bounds trace decoding for untrusted inputs. Zero fields
// mean effectively unlimited.
type DecodeLimits struct {
	// MaxJobs caps the number of trace lines.
	MaxJobs int
	// MaxNodes caps each job's tree size.
	MaxNodes int
	// MaxLineBytes caps the byte length of a single trace line.
	MaxLineBytes int64
}

func (l DecodeLimits) withDefaults() DecodeLimits {
	if l.MaxJobs <= 0 {
		l.MaxJobs = math.MaxInt
	}
	if l.MaxNodes <= 0 {
		l.MaxNodes = math.MaxInt
	}
	if l.MaxLineBytes <= 0 {
		l.MaxLineBytes = 1 << 30
	}
	return l
}

// ErrTraceTooLarge is wrapped by DecodeTrace when the trace exceeds
// DecodeLimits.MaxJobs.
var ErrTraceTooLarge = errors.New("forest: trace too large")

// DecodeTrace parses an NDJSON job trace: one Job per line, blank lines
// and #-comments skipped. Each line goes through tree.DecodeEnvelope, so
// its tree is decoded straight from the line's bytes under MaxNodes.
// Decoding is strict — a malformed line fails the whole trace with its
// line number — because a forest run is one coherent simulation, not
// independent requests. Trees are validated and resolved here, so the
// returned jobs are ready for Run.
func DecodeTrace(r io.Reader, lim DecodeLimits) ([]Job, error) {
	lim = lim.withDefaults()
	sc := bufio.NewScanner(r)
	bufCap := 64 << 10
	if int(lim.MaxLineBytes) < bufCap {
		bufCap = int(lim.MaxLineBytes)
	}
	sc.Buffer(make([]byte, 0, bufCap), int(lim.MaxLineBytes)+1)
	var jobs []Job
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if len(jobs) >= lim.MaxJobs {
			return nil, fmt.Errorf("%w: more than %d jobs", ErrTraceTooLarge, lim.MaxJobs)
		}
		var j Job
		carried, err := tree.DecodeEnvelope(line, lim.MaxNodes, &j)
		if err == nil {
			j.Tree, err = carried.Tree()
		}
		if err != nil {
			// A failed read (e.g. an aggregate body limit) hands the
			// scanner a truncated final token; blame the read error, not
			// the mangled JSON it produced.
			if rerr := sc.Err(); rerr != nil {
				return nil, fmt.Errorf("forest: reading trace: %w", rerr)
			}
			return nil, fmt.Errorf("forest: trace line %d: %w", lineNo, err)
		}
		jobs = append(jobs, j)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("forest: trace line %d exceeds %d bytes", lineNo+1, lim.MaxLineBytes)
		}
		return nil, fmt.Errorf("forest: reading trace: %w", err)
	}
	return jobs, nil
}

// EncodeTrace writes jobs as an NDJSON trace readable by DecodeTrace.
func EncodeTrace(w io.Writer, jobs []Job) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range jobs {
		if err := enc.Encode(&jobs[i]); err != nil {
			return fmt.Errorf("forest: encoding job %d: %w", i, err)
		}
	}
	return bw.Flush()
}

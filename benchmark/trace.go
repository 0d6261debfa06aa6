package main

import (
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public function.
// Spans of one op share OpID; Parent is the span that caused this one (0 for
// an op's root span). Spans inside the engine are a later issue: these are
// recorded from the benchmark's own files only.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	OpID     int32  `json:"op_id"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run shares the workloads' code.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
	ops   int32
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// op opens the root span of a new op and returns its id.
func (t *tracer) op(name string) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.ops++
	id := t.push(0, t.ops, name)
	t.mu.Unlock()
	return id
}

// start opens a child span of parent, in parent's op.
func (t *tracer) start(parent int32, name string) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := t.push(parent, t.spans[parent-1].OpID, name)
	t.mu.Unlock()
	return id
}

func (t *tracer) push(parent, op int32, name string) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, OpID: op, Workload: t.workload,
		Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// mark returns the id of the last span recorded so far.
func (t *tracer) mark() int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int32(len(t.spans))
}

// durationsMs returns the duration of every finished span recorded after mark
// whose name has one of the prefixes.
func (t *tracer) durationsMs(mark int32, prefixes ...string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for _, s := range t.spans[mark:] {
		for _, p := range prefixes {
			if strings.HasPrefix(s.Name, p) && s.EndNs > 0 {
				out = append(out, float64(s.EndNs-s.StartNs)/1e6)
				break
			}
		}
	}
	return out
}

// layerShare is one row of the traced run's summary: the self time of every
// span of one name, as a share of the root spans they belong to.
type layerShare struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share_of_op"`
}

// shares computes each span name's self time (its duration minus the part its
// child spans cover) over the ops opened after mark, as a share of those ops'
// total duration.
func (t *tracer) shares(mark int32) []layerShare {
	if t == nil {
		return nil
	}
	spans := t.spans[mark:]
	childNs := make(map[int32]int64)
	var rootNs int64
	for _, s := range spans {
		if s.EndNs == 0 {
			continue
		}
		if s.Parent == 0 {
			rootNs += s.EndNs - s.StartNs
		}
		childNs[s.Parent] += s.EndNs - s.StartNs
	}
	byName := map[string]*layerShare{}
	for _, s := range spans {
		if s.EndNs == 0 {
			continue
		}
		name := s.Name
		if s.Parent == 0 {
			name = "(benchmark)"
		}
		ls := byName[name]
		if ls == nil {
			ls = &layerShare{Name: name}
			byName[name] = ls
		}
		ls.Calls++
		ls.SelfMs += float64(s.EndNs-s.StartNs-childNs[s.ID]) / 1e6
	}
	out := make([]layerShare, 0, len(byName))
	for _, ls := range byName {
		ls.Share = ratio(ls.SelfMs*1e6, float64(rootNs))
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// opDeadline is the longest an op may take before it counts as failed.
const opDeadline = 10 * time.Second

var errDeadline = errors.New("took longer than the 10 s per-op deadline")

// recorder collects the latencies one client goroutine measured, by op kind,
// and counts failures against attempts. Ops outside the timed window (output
// checks) are counted too but carry no latency.
type recorder struct {
	latMs     map[string][]float64
	attempted int
	failed    int
	errs      []string // the first few failures, for the report
}

func newRecorder() *recorder { return &recorder{latMs: map[string][]float64{}} }

// add records one timed op. An op that returned an error, a wrong result or
// ran past the deadline is a failure and contributes no latency.
func (r *recorder) add(kind string, d time.Duration, err error) {
	r.attempted++
	if err == nil && d > opDeadline {
		err = errDeadline
	}
	if err != nil {
		r.fail(kind, err)
		return
	}
	r.latMs[kind] = append(r.latMs[kind], float64(d.Nanoseconds())/1e6)
}

// check records one untimed output check.
func (r *recorder) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail(what, err)
	}
}

func (r *recorder) fail(what string, err error) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, what+": "+err.Error())
	}
}

func (r *recorder) merge(o *recorder) {
	for k, v := range o.latMs {
		r.latMs[k] = append(r.latMs[k], v...)
	}
	r.tally(o)
}

// tally adds o's attempts and failures to r's, without o's latencies.
func (r *recorder) tally(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
	if len(r.errs) > 8 {
		r.errs = r.errs[:8]
	}
}

// all returns every timed op's latency, whatever its kind.
func (r *recorder) all() []float64 {
	var out []float64
	for _, v := range r.latMs {
		out = append(out, v...)
	}
	return out
}

func (r *recorder) timedOps() int {
	n := 0
	for _, v := range r.latMs {
		n += len(v)
	}
	return n
}

// kindMedians returns each op kind's median latency in ms.
func (r *recorder) kindMedians() map[string]float64 {
	out := make(map[string]float64, len(r.latMs))
	for k, v := range r.latMs {
		out[k] = median(v)
	}
	return out
}

// geomeanMs is the geometric mean over op kinds of each kind's median latency,
// so that one slow kind cannot own the number (TPC-H power style).
func (r *recorder) geomeanMs() float64 {
	var meds []float64
	for _, m := range r.kindMedians() {
		meds = append(meds, m)
	}
	return geomean(meds)
}

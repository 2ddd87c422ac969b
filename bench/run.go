package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"netdimm/internal/campaign"
)

// pinnedSeed is the seed whose facade rows are pinned by digest.
const pinnedSeed = 3

// pinnedDigests maps workload name to the SHA-256 of its full call's and
// set-up twin's rows at pinnedSeed. A change that only speeds up the
// simulator must leave them alone; a change that alters simulated
// behaviour on purpose updates them (a mismatch prints the new digest).
//
//go:embed testdata/digests.json
var pinnedDigestsJSON []byte

type digestPair struct {
	Full string `json:"full"`
	Twin string `json:"twin"`
}

func pinnedDigests() (map[string]digestPair, error) {
	var m map[string]digestPair
	if err := json.Unmarshal(pinnedDigestsJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return m, nil
}

// pair is one interleaved repeat of a workload: its set-up twin and its
// full call between two runs of the calibration kernel, each in a fresh
// child process.
type pair struct {
	CalBefore childResult `json:"cal_before"`
	Twin      childResult `json:"twin"`
	Full      childResult `json:"full"`
	CalAfter  childResult `json:"cal_after"`
}

// calS is the pair's calibration time: the mean of the kernel runs on
// either side, which tracks a host whose speed changes during the pair.
func (p pair) calS() float64 { return (p.CalBefore.WallS + p.CalAfter.WallS) / 2 }

// workloadRun collects one workload's repeats, traced pass and checks.
type workloadRun struct {
	w         *workloadDef
	seed      uint64
	pinned    digestPair
	pairs     []pair
	trace     *traceResult
	attempted int
	failed    int
	problems  []string
}

func (r *workloadRun) fail(cells int, format string, args ...any) {
	r.failed += cells
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runPair measures one repeat pair; alternating twinFirst between repeats
// keeps either side from always running on a warmer machine.
func (r *workloadRun) runPair(twinFirst bool) error {
	var p pair
	steps := []struct {
		kind string
		res  *childResult
	}{{kindCal, &p.CalBefore}, {kindFull, &p.Full}, {kindTwin, &p.Twin}, {kindCal, &p.CalAfter}}
	if twinFirst {
		steps[1], steps[2] = steps[2], steps[1]
	}
	for _, s := range steps {
		res, err := runChild(s.kind, r.w, r.seed, "")
		if err != nil {
			return err
		}
		*s.res = res
	}
	r.check(kindFull, p.Full.Call, r.pinned.Full)
	r.check(kindTwin, p.Twin.Call, r.pinned.Twin)
	r.pairs = append(r.pairs, p)
	return nil
}

// check applies the correctness gate to one facade call: conservation in
// every cell, the pinned digest at pinnedSeed, and the same digest as the
// workload's first call of that kind at any seed.
func (r *workloadRun) check(kind string, c callResult, pinned string) {
	r.attempted += c.Cells
	for _, bad := range c.Bad {
		r.fail(1, "%s %s: conservation: %s", r.w.name, kind, bad)
	}
	if r.seed == pinnedSeed && c.Digest != pinned {
		r.fail(c.Cells, "%s %s: rows digest %s, pinned %s in testdata/digests.json", r.w.name, kind, c.Digest, pinned)
	}
	if len(r.pairs) > 0 {
		first := r.pairs[0].Full.Call
		if kind == kindTwin {
			first = r.pairs[0].Twin.Call
		}
		if c.Digest != first.Digest {
			r.fail(c.Cells, "%s %s: rows differ between repeats (digest %s, first %s)", r.w.name, kind, c.Digest, first.Digest)
		}
	}
}

// runTrace runs the traced pass and checks the replica's rows against
// the facade's, field for field.
func (r *workloadRun) runTrace(chrome string) error {
	res, err := runChild(kindTrace, r.w, r.seed, chrome)
	if err != nil {
		return err
	}
	r.trace = res.Trace
	facade := r.pairs[0].Full.Call.Rows
	replica := r.trace.Rows
	r.attempted += len(replica)
	if len(replica) != len(facade) {
		r.fail(len(facade), "%s replica: %d rows, facade %d", r.w.name, len(replica), len(facade))
		return nil
	}
	for i := range facade {
		if replica[i] != facade[i] {
			r.fail(1, "%s replica row %d differs:\n  facade  %s\n  replica %s", r.w.name, i, facade[i], replica[i])
		}
	}
	return nil
}

// report is one workload's section of the results file.
type report struct {
	Name       string               `json:"name"`
	Why        string               `json:"why"`
	Pairs      int                  `json:"pairs"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	FailedFrac float64              `json:"failed_frac"`
	Problems   []string             `json:"problems,omitempty"`
	EndToEnd   map[string]summary   `json:"end_to_end,omitempty"`
	Raw        map[string]summary   `json:"raw,omitempty"`
	PerLayer   map[string]float64   `json:"per_layer,omitempty"`
	Recon      *reconRow            `json:"reconciliation,omitempty"`
	Spans      map[string]spanStats `json:"spans,omitempty"`
}

func (r *workloadRun) report() report {
	rep := report{
		Name: r.w.name, Why: r.w.why, Pairs: len(r.pairs),
		Attempted: r.attempted, Failed: r.failed, Problems: r.problems,
	}
	if r.attempted > 0 {
		rep.FailedFrac = float64(r.failed) / float64(r.attempted)
	}
	if len(r.pairs) > 0 {
		rep.EndToEnd, rep.Raw = endToEnd(r.pairs)
	}
	if r.trace != nil {
		rep.PerLayer = perLayer(r.trace, r.pairs)
		rc := reconcile(r.trace, r.pairs[0].Full.Call.Offered)
		rep.Recon = &rc
		rep.Spans = r.trace.Spans
	}
	return rep
}

// hostInfo identifies the machine and tree a result came from. Results
// compare only within one host class: num_cpu, goarch, cpu_model and
// go_version must all match. GOMAXPROCS is the measured children's.
type hostInfo struct {
	campaign.Host
	CPUModel    string `json:"cpu_model"`
	GitRevision string `json:"git_revision,omitempty"`
}

func currentHost() hostInfo {
	h := hostInfo{Host: campaign.CurrentHost(), CPUModel: cpuModel(), GitRevision: campaign.GitRevision(".")}
	h.GOMAXPROCS = childProcs
	return h
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// results is the file -out writes and -compare reads.
type results struct {
	Host      hostInfo `json:"host"`
	Seed      uint64   `json:"seed"`
	Workloads []report `json:"workloads"`
}

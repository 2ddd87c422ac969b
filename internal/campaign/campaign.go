// Package campaign is the reproducible experiment-campaign harness: it turns
// a declarative grid — experiments × scenarios × repeats — into one
// validated, versioned output directory.
//
// A campaign grid is a JSON document (see Grid) naming which experiment
// families to run, under which scenarios, how many independent repeats of
// each, and how wide to fan the cells out. Plan expands the grid into a
// deterministic cell list with one derived seed per cell; Runner executes
// the cells through an injected Executor (cmd/netdimm-sim binds each family
// to the run function of its entry in the CLI's family table), validates
// every produced CSV against the family's schema and expected row count, and
// writes a timestamped directory:
//
//	campaigns/<stamp>/
//	  manifest.json   host, go version, git revision, per-cell seed+config hash
//	  run.log         wall-clock execution log
//	  summary.txt     grouped per-family summary tables
//	  csv/<cell>.csv  one validated CSV per cell
//	  metrics/...     per-cell metrics-registry CSVs (cells with Metrics on)
//	  trace/...       per-cell Chrome trace-event JSON (cells with Trace on)
//
// Determinism contract: re-running the same grid with the same seeds
// yields byte-identical csv/ and metrics/ contents at any parallelism (the
// manifest and log record wall times and may differ). CI pins this by
// running the default grid twice and diffing the directories, and
// cmd/netdimm-sim's TestCampaignDefaultGridDigests pins their SHA-256s.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Experiment is one row of a campaign grid: an experiment family plus the
// axes it sweeps. Zero-valued axes select the family's own defaults, so a
// minimal row is just {"Experiment": "fig11"}.
type Experiment struct {
	// Experiment names the family: one of the keys of the schema registry
	// passed to Validate (fig4, fig11, fig12a, ablation, faultsweep,
	// loadsweep, racksweep, failsweep, collsweep in cmd/netdimm-sim).
	Experiment string
	// Scenario selects the simulated system: a named preset or a JSON
	// config file path, exactly as the -scenario CLI flag ("" = table1).
	Scenario string
	// Repeats overrides the grid-level repeat count for this row (0 =
	// inherit).
	Repeats int
	// Seed overrides the grid-level base seed for this row (0 = inherit).
	Seed uint64
	// Packets is the per-cell packet budget for trace/sweep families
	// (0 = the family default).
	Packets int
	// Sizes is the packet-size axis of fig4/fig11 (nil = paper sizes).
	Sizes []int
	// SwitchNs overrides the scenario's SwitchLatNs, the switch
	// port-to-port latency in nanoseconds (0 = the scenario's value);
	// fig12a sweeps the paper's axis instead.
	SwitchNs int
	// Rates is the loss-rate axis of faultsweep or the offered-load axis
	// of loadsweep/racksweep (nil = family default grid).
	Rates []float64
	// Racks is the leaf-count axis of racksweep (nil = {2,4,8}).
	Racks []int
	// Outages is the spine-outage axis of failsweep in Go duration syntax
	// ("0" allowed; nil = the family default grid).
	Outages []string
	// Hosts overrides Load.Hosts for the sweep families (0 = scenario).
	Hosts int
	// Ranks is the rank-count axis of collsweep (nil = {4,...,128}).
	Ranks []int
	// Ops is the operation axis of collsweep: any of "allreduce",
	// "broadcast", "reducescatter" (nil = all three).
	Ops []string
	// Payload overrides Collective.PayloadBytes for collsweep (0 =
	// scenario, whose zero means 64KiB).
	Payload int
	// Metrics arms the metrics registry for the row's cells (observed
	// families only); the registry CSV is written next to the cell's
	// result CSV.
	Metrics bool
	// Trace arms per-packet lifecycle tracing for the row's cells (observed
	// families only); the Chrome trace-event JSON is written under trace/.
	Trace bool
}

// Grid is a declarative experiment campaign: the JSON document the
// `campaign` subcommand loads via -grid.
type Grid struct {
	// Name labels the campaign in the manifest and summary (default
	// "campaign").
	Name string
	// Seed is the base seed every cell seed derives from (default 3, the
	// CLI default).
	Seed uint64
	// Repeats is the default independent-repeat count per experiment row
	// (default 1).
	Repeats int
	// Parallelism fans cells over worker goroutines: 0 = all cores, 1 =
	// sequential, N = at most N. Cell results are identical either way.
	Parallelism int
	// Experiments lists the grid rows; at least one is required.
	Experiments []Experiment
}

// Schema describes the CSV contract of one experiment family: the exact
// header and a lower bound on data rows. The runner validates every cell's
// CSV against its family schema before declaring the campaign successful.
type Schema struct {
	Header  []string
	MinRows int
	// Observed reports that the family records an Observation, so a
	// grid row may arm its Metrics and Trace.
	Observed bool
}

// ReadGrid decodes a campaign grid from JSON. Unknown fields are rejected
// so a typo'd axis fails loudly instead of silently selecting a default.
func ReadGrid(r io.Reader) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("campaign: grid: %w", err)
	}
	return g, nil
}

// LoadGrid reads a grid file. The grid is not yet validated — callers
// follow with Validate against their schema registry.
func LoadGrid(path string) (Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return Grid{}, fmt.Errorf("campaign: grid: %w", err)
	}
	defer f.Close()
	g, err := ReadGrid(f)
	if err != nil {
		return Grid{}, fmt.Errorf("campaign: grid %s: %w", path, err)
	}
	return g, nil
}

// Validate checks the grid against a family registry, returning an
// actionable error naming the offending row. It mirrors the spec-plane
// convention: every reported problem says what was wrong and what would
// be accepted.
func (g Grid) Validate(known map[string]Schema) error {
	if len(g.Experiments) == 0 {
		return fmt.Errorf("campaign: grid has no experiments")
	}
	if g.Repeats < 0 || g.Repeats > maxRepeats {
		return fmt.Errorf("campaign: Repeats %d is outside 0..%d", g.Repeats, maxRepeats)
	}
	if g.Parallelism < 0 {
		return fmt.Errorf("campaign: Parallelism %d is negative (0 = all cores)", g.Parallelism)
	}
	for i, e := range g.Experiments {
		at := func(format string, args ...any) error {
			return fmt.Errorf("campaign: experiments[%d] (%s): %s", i, e.Experiment, fmt.Sprintf(format, args...))
		}
		if e.Experiment == "" {
			return fmt.Errorf("campaign: experiments[%d]: missing Experiment family (known: %s)", i, familyList(known))
		}
		schema, ok := known[e.Experiment]
		if !ok {
			return fmt.Errorf("campaign: experiments[%d]: unknown experiment family %q (known: %s)", i, e.Experiment, familyList(known))
		}
		if (e.Metrics || e.Trace) && !schema.Observed {
			return at("Metrics and Trace need a family that records an observation (families that do: %s)", observedList(known))
		}
		if e.Repeats < 0 || e.Packets < 0 || e.Hosts < 0 || e.SwitchNs < 0 {
			return at("Repeats/Packets/Hosts/SwitchNs must be non-negative")
		}
		if e.Repeats > maxRepeats {
			return at("Repeats %d exceeds %d: cell seeds are base + %d*row + repeat, so more repeats would reuse the next row's seeds", e.Repeats, maxRepeats, maxRepeats)
		}
		for _, s := range e.Sizes {
			if s <= 0 {
				return at("packet size %d must be positive", s)
			}
		}
		for _, r := range e.Rates {
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return at("rate %g must be a finite non-negative fraction of line rate", r)
			}
			if r == 0 && (e.Experiment == "loadsweep" || e.Experiment == "racksweep") {
				return at("offered load 0 must be positive (only a faultsweep loss rate may be 0)")
			}
			if r > 1 && e.Experiment == "faultsweep" {
				return at("loss rate %g must be a probability in [0,1]", r)
			}
		}
		for _, r := range e.Racks {
			if r < 1 {
				return at("rack count %d must be at least 1", r)
			}
		}
		for _, o := range e.Outages {
			if _, err := parseOutage(o); err != nil {
				return at("bad outage duration %q: %v (use Go duration syntax, e.g. \"20us\", or \"0\")", o, err)
			}
		}
		if e.Payload < 0 {
			return at("Payload %d must be non-negative", e.Payload)
		}
		for _, r := range e.Ranks {
			if r < 2 {
				return at("rank count %d must be at least 2", r)
			}
		}
		for _, op := range e.Ops {
			switch op {
			case "allreduce", "broadcast", "reducescatter":
			default:
				return at("unknown collective op %q (want allreduce, broadcast or reducescatter)", op)
			}
		}
	}
	return nil
}

// maxRepeats bounds a row's repeat count: the cell seed formula
// (base + maxRepeats*row + repeat) gives rows on one base distinct seeds
// only while no row repeats more often.
const maxRepeats = 1000

// familyList renders the registry keys sorted for error messages.
func familyList(known map[string]Schema) string {
	names := make([]string, 0, len(known))
	for name := range known {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// observedList renders, sorted, the registry keys whose family records an
// observation.
func observedList(known map[string]Schema) string {
	observed := map[string]Schema{}
	for name, s := range known {
		if s.Observed {
			observed[name] = s
		}
	}
	return familyList(observed)
}

// parseOutage accepts Go duration syntax plus a bare "0".
func parseOutage(s string) (time.Duration, error) {
	if strings.TrimSpace(s) == "0" {
		return 0, nil
	}
	return time.ParseDuration(strings.TrimSpace(s))
}

// Cell is one planned unit of campaign work: a fully resolved
// (experiment, scenario, repeat) instance with its derived seed. Cells are
// pure values, so the runner can fan them out and the manifest can record
// them verbatim.
type Cell struct {
	// Index is the cell's position in plan order.
	Index int
	// Name is the cell's file stem: <experiment>-<scenario-slug>-r<repeat>.
	Name string
	// Row is the grid row the cell expands, verbatim: its family, scenario
	// and axes.
	Row Experiment
	// Repeat numbers the independent repeat, from 0.
	Repeat int
	// Seed is the cell's derived seed: base + 1000*rowIndex + repeat
	// (Validate caps repeats at 1000, so rows on one base never share a
	// seed),
	// where base is the row's Seed override or the grid Seed. The formula
	// is part of the reproducibility contract (golden-pinned), so two
	// plans of the same grid always agree.
	Seed uint64
	// Outages is Row.Outages parsed to concrete durations.
	Outages []time.Duration
}

// Plan expands the grid into its deterministic cell list. The grid must
// have passed Validate; a malformed outage still returns an error rather
// than panicking.
func (g Grid) Plan() ([]Cell, error) {
	var cells []Cell
	used := map[string]bool{}
	baseSeed := g.Seed
	if baseSeed == 0 {
		baseSeed = 3
	}
	repeats := g.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	for ri, e := range g.Experiments {
		reps := repeats
		if e.Repeats > 0 {
			reps = e.Repeats
		}
		base := baseSeed
		if e.Seed != 0 {
			base = e.Seed
		}
		var outages []time.Duration
		for _, o := range e.Outages {
			d, err := parseOutage(o)
			if err != nil {
				return nil, fmt.Errorf("campaign: experiments[%d] (%s): bad outage %q: %w", ri, e.Experiment, o, err)
			}
			outages = append(outages, d)
		}
		for r := 0; r < reps; r++ {
			// Two grid rows with the same family and scenario would
			// produce colliding file stems; suffix the later row's cells
			// with its row index so csv/ never silently overwrites. A
			// slug may itself end in "-x<n>", so a suffixed stem can
			// collide too; count up from the row index until it does not.
			name := fmt.Sprintf("%s-%s-r%d", e.Experiment, scenarioSlug(e.Scenario), r)
			for n := ri; used[name]; n++ {
				name = fmt.Sprintf("%s-%s-x%d-r%d", e.Experiment, scenarioSlug(e.Scenario), n, r)
			}
			used[name] = true
			cells = append(cells, Cell{
				Index:   len(cells),
				Name:    name,
				Row:     e,
				Repeat:  r,
				Seed:    base + uint64(maxRepeats*ri+r),
				Outages: outages,
			})
		}
	}
	return cells, nil
}

// scenarioSlug turns a scenario argument into a filename-safe stem:
// "scenarios/clos-2x4.json" becomes "clos-2x4", "" becomes "table1".
func scenarioSlug(s string) string {
	if s == "" {
		return "table1"
	}
	s = filepath.Base(s)
	s = strings.TrimSuffix(s, filepath.Ext(s))
	var sb strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	if sb.Len() == 0 {
		return "scenario"
	}
	return sb.String()
}

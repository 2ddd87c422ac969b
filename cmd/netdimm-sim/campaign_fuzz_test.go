package main

import (
	"strings"
	"testing"

	"netdimm/internal/campaign"
)

// FuzzCampaignGrid hardens the campaign-grid entry point: arbitrary JSON
// must never panic ReadGrid, Validate or Plan, and every grid that
// validates against the family registry must plan without an error into
// one uniquely named cell per repeat.
func FuzzCampaignGrid(f *testing.F) {
	f.Add(`{"Experiments": [{"Experiment": "fig11"}]}`)
	f.Add(`{"Name": "x", "Seed": 7, "Repeats": 2, "Parallelism": 1, "Experiments": [{"Experiment": "fig4", "Sizes": [64, 1500]}, {"Experiment": "fig4", "Repeats": 1}]}`)
	f.Add(`{"Experiments": [{"Experiment": "failsweep", "Outages": ["0", "20us"]}, {"Experiment": "failsweep", "Outages": ["5parsecs"]}]}`)
	f.Add(`{"Experiments": [{"Experiment": "collsweep", "Ranks": [2, 4], "Ops": ["allreduce"], "Payload": 4096}]}`)
	f.Add(`{"Experiments": [{"Experiment": "racksweep", "Racks": [2], "Rates": [0.2], "Hosts": 16, "Metrics": true, "Trace": true}]}`)
	f.Add(`{"Experiments": [{"Experiment": "fig11", "Scenario": "a-x2"}, {"Experiment": "fig11", "Scenario": "a"}, {"Experiment": "fig11", "Scenario": "a"}]}`)
	f.Add(`{"Repeats": 1001, "Experiments": [{"Experiment": "fig11"}]}`)
	f.Add(`{"Experiments": [{"Experiment": "loadsweep", "Rates": [-1]}]}`)
	f.Add(`{"Experiments": []}`)
	f.Add(`{"Experiments": [{"Experiment": "fig99"}]}`)
	f.Add(`{"Experimants": []}`)
	f.Add(`[{"Experiment": "fig11"}]`)
	f.Add(`{"Seed": -1}`)
	f.Add(`{"Experiments": [{"Experiment": "fig4", "Metrics": true}]}`)
	f.Add(`{"Experiments": [{"Experiment": "ablation", "Trace": true}]}`)
	f.Add(`{"Experiments": [{"Experiment": "fig12a", "Packets": 50, "Metrics": false, "Trace": false}, {"Experiment": "collsweep", "Trace": true}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		g, err := campaign.ReadGrid(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(campaignSchemas()); err != nil {
			return
		}
		cells, err := g.Plan()
		if err != nil {
			t.Fatalf("grid %q validates but Plan fails: %v", data, err)
		}
		want := 0
		for _, e := range g.Experiments {
			switch {
			case e.Repeats > 0:
				want += e.Repeats
			case g.Repeats > 0:
				want += g.Repeats
			default:
				want++
			}
		}
		if len(cells) != want {
			t.Fatalf("grid %q planned %d cells, want %d", data, len(cells), want)
		}
		names := make(map[string]bool, len(cells))
		for _, c := range cells {
			if names[c.Name] {
				t.Fatalf("grid %q planned two cells named %q", data, c.Name)
			}
			names[c.Name] = true
		}
	})
}

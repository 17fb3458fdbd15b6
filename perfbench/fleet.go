package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"snic/internal/device"
	"snic/internal/fleet"
	"snic/internal/obs"
	"snic/internal/sim"
)

// Request classes of the fleet script. place, remove and stats are the
// control requests (ctl_*).
const (
	classPlace     = "place"
	classRemove    = "remove"
	classStats     = "stats"
	classBurst     = "burst"
	classChurnCold = "churn_cold"
	classChurnFast = "churn_fast"
)

// request is one step of the fleet script, replayable over HTTP and
// directly against a fleet.Manager.
type request struct {
	class        string
	method, path string
	body         []byte
	want         int    // expected HTTP status
	tenant, nf   string // place and remove
	prefill      bool   // placed before the measured cycles: checked, not timed
}

// bootConfig is snicd's -config format (devices and tenants).
type bootConfig struct {
	Devices []fleet.DeviceSpec   `json:"devices"`
	Tenants []fleet.TenantConfig `json:"tenants"`
}

// fleetBoot builds the bootstrap fleet: sh.devicesPerModel devices of
// every registered model plus sh.snicExtra S-NICs, in a seed-shuffled
// order, and sh.tenants tenants without quotas.
func fleetBoot(sh fleetShape, seed uint64) bootConfig {
	var models []string
	for _, m := range device.Models() {
		for i := 0; i < sh.devicesPerModel; i++ {
			models = append(models, m)
		}
	}
	for i := 0; i < sh.snicExtra; i++ {
		models = append(models, "snic")
	}
	rng := sim.DeriveRand(seed, "perfbench/fleet/boot")
	for i := len(models) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		models[i], models[j] = models[j], models[i]
	}
	var cfg bootConfig
	for i, m := range models {
		cfg.Devices = append(cfg.Devices, fleet.DeviceSpec{Name: fmt.Sprintf("d%02d-%s", i, m), Model: m})
	}
	for i := 0; i < sh.tenants; i++ {
		cfg.Tenants = append(cfg.Tenants, fleet.TenantConfig{Name: fmt.Sprintf("t%d", i)})
	}
	return cfg
}

// fleetScript builds the closed-loop request script: sh.live placements,
// then sh.cycles of place sh.perCycle NFs → one burst → remove
// sh.perCycle seed-chosen live NFs → stats, with one cold and one
// fast-path churn every sh.churnEvery cycles. The live NF count stays
// between sh.live and sh.live+sh.perCycle, well inside the fleet's
// capacity, so no request is refused.
func fleetScript(sh fleetShape, seed uint64) []request {
	rng := sim.DeriveRand(seed, "perfbench/fleet/script")
	type live struct{ tenant, nf string }
	var lives []live
	var out []request
	next := 0
	place := func(prefill bool) {
		l := live{tenant: fmt.Sprintf("t%d", rng.Intn(sh.tenants)), nf: fmt.Sprintf("nf%05d", next)}
		next++
		lives = append(lives, l)
		body := fmt.Sprintf(`{"name":%q,"mem_mb":%d}`, l.nf, 1+rng.Intn(2))
		out = append(out, request{class: classPlace, method: "POST",
			path: "/v1/tenants/" + l.tenant + "/nfs", body: []byte(body), want: 201,
			tenant: l.tenant, nf: l.nf, prefill: prefill})
	}
	jsonBody := func(v any) []byte {
		b, _ := json.Marshal(v) // structs of ints and bools always marshal
		return b
	}
	for i := 0; i < sh.live; i++ {
		place(true)
	}
	for c := 0; c < sh.cycles; c++ {
		for i := 0; i < sh.perCycle; i++ {
			place(false)
		}
		out = append(out, request{class: classBurst, method: "POST", path: "/v1/burst",
			body: jsonBody(sh.burst), want: 200})
		for i := 0; i < sh.perCycle; i++ {
			k := rng.Intn(len(lives))
			l := lives[k]
			lives[k] = lives[len(lives)-1]
			lives = lives[:len(lives)-1]
			out = append(out, request{class: classRemove, method: "DELETE",
				path: "/v1/tenants/" + l.tenant + "/nfs/" + l.nf, want: 200, tenant: l.tenant, nf: l.nf})
		}
		out = append(out, request{class: classStats, method: "GET", path: "/v1/oper/stats", want: 200})
		if (c+1)%sh.churnEvery == 0 {
			cold, fast := sh.churn, sh.churn
			cold.FastPath, fast.FastPath = false, true
			out = append(out,
				request{class: classChurnCold, method: "POST", path: "/v1/churn", body: jsonBody(cold), want: 200},
				request{class: classChurnFast, method: "POST", path: "/v1/churn", body: jsonBody(fast), want: 200})
		}
	}
	return out
}

// fleetCounts are the per-layer counts a traced fleet pass reads from
// response bodies.
type fleetCounts struct {
	packets, drops, burstJobs               float64 // bursts
	snicLaunches, snicAttests, hits, misses float64 // fast-path churns on S-NICs
	launches, fails                         float64 // every churn, every device
}

// observe folds one response body into the counts.
func (c *fleetCounts) observe(class string, body []byte) error {
	switch class {
	case classBurst:
		var r fleet.BurstResult
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("burst response: %w", err)
		}
		c.packets += float64(r.Packets)
		c.drops += float64(r.Drops)
		c.burstJobs += float64(r.Devices)
	case classChurnCold, classChurnFast:
		var r fleet.ChurnResult
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("churn response: %w", err)
		}
		for _, d := range r.Devices {
			c.launches += float64(d.Launches)
			c.fails += float64(d.Fails)
			if class == classChurnFast && strings.HasSuffix(d.Device, "-snic") {
				c.snicLaunches += float64(d.Launches)
				c.snicAttests += float64(d.Attests)
				c.hits += float64(d.PoolHits)
				c.misses += float64(d.PoolMisses)
			}
		}
	}
	return nil
}

func (c *fleetCounts) layers(layers map[string]float64) {
	layers["pktio.packets"] = c.packets
	layers["pktio.drop_ratio"] = ratio(c.drops, c.packets+c.drops)
	layers["engine.burst_jobs"] = c.burstJobs
	layers["snic.launches"] = c.snicLaunches
	layers["snic.pool_hit_ratio"] = ratio(c.hits, c.hits+c.misses)
	layers["snic.attests_per_launch"] = ratio(c.snicAttests, c.snicLaunches)
	layers["device.refusal_ratio"] = ratio(c.fails, c.launches+c.fails)
}

// replayResult is an in-process replay of the script against a
// fleet.Manager: per-class call times and the final state bodies.
type replayResult struct {
	lat         map[string][]float64 // ms per class
	oper, stats string
}

// replayFleet applies the bootstrap and the script directly to a
// fleet.Manager built the way snicd builds one, timing each manager
// call, and renders the final /v1/oper and /v1/oper/stats bodies the way
// the API does.
func replayFleet(boot bootConfig, script []request, seed uint64) (replayResult, error) {
	m, err := fleet.NewManager(fleet.Config{Seed: seed, Obs: obs.NewRegistry()})
	if err != nil {
		return replayResult{}, err
	}
	for _, d := range boot.Devices {
		if err := m.AddDevice(d); err != nil {
			return replayResult{}, err
		}
	}
	for _, t := range boot.Tenants {
		if err := m.Admit(t.Name, t.Quota); err != nil {
			return replayResult{}, err
		}
	}
	res := replayResult{lat: map[string][]float64{}}
	for _, rq := range script {
		t := time.Now()
		err := applyRequest(m, rq)
		d := time.Since(t)
		if err != nil {
			return replayResult{}, fmt.Errorf("replay %s %s: %w", rq.method, rq.path, err)
		}
		if !rq.prefill {
			res.lat[rq.class] = append(res.lat[rq.class], float64(d.Nanoseconds())/1e6)
		}
	}
	if res.oper, err = apiBody(m.Oper()); err != nil {
		return replayResult{}, err
	}
	if res.stats, err = apiBody(m.StatsView()); err != nil {
		return replayResult{}, err
	}
	return res, nil
}

// applyRequest performs rq's manager call, decoding its body the way the
// API handler does.
func applyRequest(m *fleet.Manager, rq request) error {
	switch rq.class {
	case classPlace:
		var spec fleet.NFSpec
		if err := json.Unmarshal(rq.body, &spec); err != nil {
			return err
		}
		_, err := m.Place(rq.tenant, spec)
		return err
	case classRemove:
		return m.Remove(rq.tenant, rq.nf)
	case classStats:
		m.StatsView()
		return nil
	case classBurst:
		var spec fleet.WorkloadSpec
		if err := json.Unmarshal(rq.body, &spec); err != nil {
			return err
		}
		_, err := m.Burst(spec)
		return err
	case classChurnCold, classChurnFast:
		var spec fleet.ChurnSpec
		if err := json.Unmarshal(rq.body, &spec); err != nil {
			return err
		}
		_, err := m.Churn(spec)
		return err
	}
	return fmt.Errorf("unknown request class %q", rq.class)
}

// apiBody renders v exactly as the API's writeJSON does.
func apiBody(v any) (string, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

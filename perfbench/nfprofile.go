package main

import (
	"fmt"
	"runtime"
	"time"

	"snic/internal/engine"
	"snic/internal/exp"
	"snic/internal/nf"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/trace"
)

// nfprofilePass runs the Table 6/8 profiling sweep once, as `snicbench
// -experiment table6` does, on one engine worker so every NF's cost
// counts toward the wall time. With traced set, the engine observer
// records per-NF job times and the per-NF probe runs after the measured
// call.
func nfprofilePass(sc scale, seed uint64, traced bool, ready func()) (passResult, error) {
	suite := sc.suite
	suite.Seed = seed
	r := &exp.Runner{Workers: 1}
	var em engine.Metrics
	if traced {
		r.Observe = func(m engine.Metrics) { em = m }
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	ready()
	start := time.Now()
	profiles, err := r.ProfileNFs(suite, sc.flows, sc.packets)
	wall := time.Since(start)
	if err != nil {
		return passResult{}, fmt.Errorf("profile NFs: %w", err)
	}
	res := passResult{
		WallS:  wall.Seconds(),
		Output: exp.Table6(profiles).String() + "\n",
		Work:   float64(len(nf.Names) * sc.packets),
	}
	if !traced {
		return res, nil
	}

	layers := map[string]float64{}
	addRuntime(layers, &ms0)
	addEngine(layers, em)
	for _, j := range em.Jobs {
		layers["engine.job_s."+j.Key] = j.Duration.Seconds()
	}
	var drawT time.Duration
	var draws int
	for _, name := range nf.Names {
		p, err := nfProbe(name, suite, sc.flows, sc.packets, seed)
		if err != nil {
			return passResult{}, err
		}
		layers["nf.build_s."+name] = p.build.Seconds()
		layers["nf.ns_per_pkt."+name] = float64(p.process.Nanoseconds()) / float64(p.processed)
		drawT += p.draw
		draws += sc.packets
		if name == "Mon" {
			layers["trace.caida_ns_per_pkt"] = float64(p.caida.Nanoseconds()) / float64(p.caidaPkts)
		}
	}
	layers["trace.ns_per_pkt"] = float64(drawT.Nanoseconds()) / float64(draws)
	res.Layers = layers
	return res, nil
}

// nfProbeResult is the host time one NF's probe spent in each layer.
type nfProbeResult struct {
	build, draw, process, caida time.Duration
	processed, caidaPkts        int
}

// probeChunk is how many packets the probe draws before processing
// them, so each timer brackets thousands of calls.
const probeChunk = 4096

// nfProbe replays one NF's profiling workload at the same inputs:
// nf.New, then IMIX pool packets drawn a chunk at a time
// (Pool.NextPacketBuf, payload bytes included) and then processed
// (NF.Process), plus the Monitor's CAIDA window drawn and processed the
// same way.
func nfProbe(name string, suite nf.SuiteConfig, flows, packets int, seed uint64) (nfProbeResult, error) {
	var p nfProbeResult
	rng := sim.DeriveRand(seed, "perfbench/nfprofile", name)
	pool := trace.NewICTF(rng.Fork(), flows)
	t := time.Now()
	f, err := nf.New(name, suite)
	p.build = time.Since(t)
	if err != nil {
		return p, err
	}
	batch := make([]pkt.Packet, probeChunk)
	arena := make([]byte, 0, probeChunk*1500)
	for done := 0; done < packets; {
		n := min(probeChunk, packets-done)
		arena = arena[:0]
		t = time.Now()
		for i := 0; i < n; i++ {
			_, pk := pool.NextPacketBuf(trace.IMIXLen(rng))
			// The pool reuses its payload buffer; keep a copy.
			off := len(arena)
			arena = append(arena, pk.Payload...)
			pk.Payload = arena[off:len(arena):len(arena)]
			batch[i] = pk
		}
		p.draw += time.Since(t)
		t = time.Now()
		for i := 0; i < n; i++ {
			f.Process(&batch[i])
		}
		p.process += time.Since(t)
		done += n
		p.processed += n
	}
	if name != "Mon" {
		return p, nil
	}
	c := trace.NewCAIDA(rng.Fork(), float64(flows))
	c.Advance(10, 1)
	for more := true; more; {
		n := 0
		t = time.Now()
		for n < probeChunk {
			_, pk, ok := c.Next()
			if !ok {
				more = false
				break
			}
			batch[n] = pk
			n++
		}
		p.caida += time.Since(t)
		t = time.Now()
		for i := 0; i < n; i++ {
			f.Process(&batch[i])
		}
		p.process += time.Since(t)
		p.processed += n
		p.caidaPkts += n
	}
	return p, nil
}

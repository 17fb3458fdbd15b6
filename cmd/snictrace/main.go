// Command snictrace records and replays packet traces against an S-NIC.
//
//	snictrace -record trace.bin -flows 1000 -packets 50000   # synthesize + save
//	snictrace -replay trace.bin                              # feed through an S-NIC firewall
//
// Recording uses the ICTF-like Zipf(1.1) pool; replay launches a firewall
// NF with a catch-all rule and reports delivery and verdict counts, so a
// saved trace reproduces byte-identical runs across machines.
package main

import (
	"flag"
	"fmt"
	"os"

	"snic/internal/device"
	"snic/internal/nf"
	"snic/internal/pkt"
	"snic/internal/pktio"
	"snic/internal/sim"
	"snic/internal/trace"
)

func main() {
	record := flag.String("record", "", "write a synthesized trace to this file")
	replay := flag.String("replay", "", "replay a trace file through an S-NIC firewall")
	flows := flag.Int("flows", 1000, "flow-pool size for -record")
	packets := flag.Int("packets", 10000, "packets to synthesize for -record")
	seed := flag.Uint64("seed", 1, "synthesis seed")
	flag.Parse()

	var err error
	switch {
	case *record != "":
		err = doRecord(*record, *flows, *packets, *seed)
	case *replay != "":
		err = doReplay(*replay)
	default:
		err = fmt.Errorf("need -record FILE or -replay FILE")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snictrace:", err)
		os.Exit(1)
	}
}

func doRecord(path string, flows, packets int, seed uint64) error {
	pool := trace.NewICTF(sim.NewRand(seed), flows)
	frames := pool.Frames(packets)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.SaveFrames(f, frames); err != nil {
		return err
	}
	var bytesTotal int
	for _, fr := range frames {
		bytesTotal += len(fr)
	}
	fmt.Printf("recorded %d frames (%d flows, %.1f MB) to %s\n",
		len(frames), flows, float64(bytesTotal)/(1<<20), path)
	return nil
}

func doReplay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	frames, err := trace.LoadFrames(f)
	if err != nil {
		return err
	}

	dev, err := device.New(device.Spec{Model: "snic", Cores: 4, MemBytes: 64 << 20})
	if err != nil {
		return err
	}
	id, err := dev.Launch(device.FuncSpec{
		Name:     "replay-firewall",
		Image:    []byte("replay-firewall"),
		MemBytes: 4 << 20,
		Rules:    []pktio.MatchSpec{{}}, // catch-all
	})
	if err != nil {
		return err
	}
	// The rule set is fixed (derived from a constant base, not -seed) so a
	// saved trace replays against identical firewall behavior everywhere.
	fw := nf.NewFirewall(trace.FirewallRules(sim.DeriveRand(7, "snictrace", "replay-rules"), 128))

	var delivered, passed, dropped, parseErr int
	for _, frame := range frames {
		owner, err := dev.Inject(frame)
		if err != nil || owner != id {
			parseErr++
			continue
		}
		raw, err := dev.Retrieve(id, nil)
		if err != nil {
			continue
		}
		delivered++
		p, err := pkt.Parse(raw)
		if err != nil {
			parseErr++
			continue
		}
		if fw.Process(&p) == nf.Drop {
			dropped++
		} else {
			passed++
		}
	}
	fmt.Printf("replayed %d frames: %d delivered, %d passed, %d dropped, %d errors\n",
		len(frames), delivered, passed, dropped, parseErr)
	fmt.Printf("firewall: %d flows cached, %d cache hits, %d evictions\n",
		fw.CacheLen(), fw.Hits, fw.Evicted)
	return nil
}

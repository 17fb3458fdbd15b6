// Package attacks reproduces the paper's attacks (§3.2/§3.3) as a
// polymorphic suite over the device.NIC abstraction. Each Attack names
// the S-NIC defense capability that blocks it (Exploits) and, where
// relevant, the architectural property it needs to exist at all
// (Requires); running the same suite against every registered model
// yields the succeeds/blocked matrix:
//
//   - packet-corruption / dpi-ruleset-theft: raw-physical scans of
//     shared DRAM locate and modify (or exfiltrate) another function's
//     state — blocked by single-owner RAM.
//   - io-bus-dos: a flooding client starves a victim past the bus
//     watchdog and hard-crashes the NIC — blocked by temporal bus
//     partitioning.
//   - secure-os-snooping: the management/secure-world OS reads tenant
//     memory wholesale — blocked by the denylist on the management MMU.
//   - cache-prime+probe: eviction timing in a shared L2 leaks a
//     victim's access pattern — blocked by static cache partitioning.
//   - crypto-contention: queueing delay at a shared accelerator leaks
//     co-tenant activity — blocked by per-function accelerator state.
//   - controlled-channel: a demand-paging OS decodes secrets from the
//     fault stream — blocked by the locked TLB (needs demand paging to
//     exist in the first place).
//   - flow-watermarking: bus-pressure modulation marks a co-resident
//     flow's timing — blocked by temporal bus partitioning.
//
// Every attack returns a Result, so tests, the attack-matrix experiment
// and cmd/snicattack can all assert "succeeds on a commodity baseline,
// blocked on S-NIC" from the same code path.
package attacks

import (
	"bytes"
	"fmt"

	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/device"
	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/pktio"
	"snic/internal/sim"
	"snic/internal/tlb"
)

// Result reports one attack run.
type Result struct {
	Name      string
	Target    string
	Succeeded bool
	Detail    string
}

func (r Result) String() string {
	verdict := "BLOCKED"
	if r.Succeeded {
		verdict = "SUCCEEDED"
	}
	return fmt.Sprintf("%-22s vs %-13s %s  (%s)", r.Name, r.Target, verdict, r.Detail)
}

// Attack is one entry of the suite. Exploits is the defense capability
// that blocks it; Requires is an architectural property without which
// the attack surface does not exist (e.g. controlled channels need a
// demand-paging OS).
type Attack struct {
	Name     string
	Exploits device.Capability
	Requires device.Capability
	run      func(dev device.NIC) (Result, error)
}

// Expected predicts the outcome against a device with the given
// capabilities: the attack succeeds iff its prerequisites are present
// and the blocking defense is absent.
func (a Attack) Expected(caps device.Capability) bool {
	return caps.Has(a.Requires) && !caps.Has(a.Exploits)
}

// Run executes the attack against dev. A device lacking the attack's
// prerequisites is reported as blocked ("not applicable") without
// running anything.
func (a Attack) Run(dev device.NIC) (Result, error) {
	if !dev.Caps().Has(a.Requires) {
		return Result{
			Name: a.Name, Target: dev.Model(),
			Detail: fmt.Sprintf("not applicable: device lacks %s", a.Requires),
		}, nil
	}
	res, err := a.run(dev)
	res.Name, res.Target = a.Name, dev.Model()
	return res, err
}

// Suite returns the full attack suite in report order.
func Suite() []Attack {
	return []Attack{
		{
			Name: "packet-corruption", Exploits: device.SingleOwnerRAM,
			run: func(dev device.NIC) (Result, error) {
				return withPair(dev, func(victim, attacker device.FuncID) (Result, error) {
					frame := (&pkt.Packet{
						Tuple: pkt.FiveTuple{
							SrcIP: 0x0A000001, DstIP: 0x08080808,
							SrcPort: 5555, DstPort: 80, Proto: pkt.ProtoTCP,
						},
						Payload: []byte("pre-translation payload"),
					}).Marshal()
					return Corruption(dev, victim, attacker, frame)
				})
			},
		},
		{
			Name: "dpi-ruleset-theft", Exploits: device.SingleOwnerRAM,
			run: func(dev device.NIC) (Result, error) {
				return withPair(dev, func(victim, attacker device.FuncID) (Result, error) {
					ruleset := []byte("alert tcp any any -> any 80 (threat signature db)")
					return Theft(dev, victim, attacker, ruleset)
				})
			},
		},
		{
			Name: "io-bus-dos", Exploits: device.ArbitratedBus,
			run: func(dev device.NIC) (Result, error) {
				return BusDoS(dev, 200000)
			},
		},
		{
			Name: "secure-os-snooping", Exploits: device.MgmtIsolated,
			run: func(dev device.NIC) (Result, error) {
				return withPair(dev, func(victim, _ device.FuncID) (Result, error) {
					return MgmtSnoop(dev, victim, []byte("tenant TLS session keys"))
				})
			},
		},
		{
			Name: "cache-prime+probe", Exploits: device.PartitionedCache,
			run: func(dev device.NIC) (Result, error) {
				acc, err := PrimeProbe(dev.CachePolicy(), 512, 0x9E)
				if err != nil {
					return Result{}, err
				}
				return Result{
					Succeeded: acc > 0.9,
					Detail:    fmt.Sprintf("attacker bit accuracy %.2f over 512 secret bits", acc),
				}, nil
			},
		},
		{
			Name: "crypto-contention", Exploits: device.PrivateAccel,
			run: func(dev device.NIC) (Result, error) {
				return withPair(dev, func(victim, attacker device.FuncID) (Result, error) {
					acc := CryptoContention(dev, victim, attacker, 256, 0xC0)
					return Result{
						Succeeded: acc > 0.9,
						Detail:    fmt.Sprintf("queueing-delay accuracy %.2f over 256 rounds", acc),
					}, nil
				})
			},
		},
		{
			Name: "controlled-channel", Exploits: device.LockedTLB, Requires: device.DemandPaging,
			run: func(dev device.NIC) (Result, error) {
				frac := ControlledChannel(dev.Caps().Has(device.LockedTLB), []byte("page-walk secret"))
				return Result{
					Succeeded: frac > 0.9,
					Detail:    fmt.Sprintf("fault stream recovered %.0f%% of secret bits", frac*100),
				}, nil
			},
		},
		{
			Name: "flow-watermarking", Exploits: device.ArbitratedBus,
			run: func(dev device.NIC) (Result, error) {
				acc := Watermark(dev.NewBusArbiter, 128, 0x77)
				return Result{
					Succeeded: acc > 0.75,
					Detail:    fmt.Sprintf("watermark decode accuracy %.2f over 128 windows", acc),
				}, nil
			},
		},
	}
}

// RunAll runs the whole suite against one device and collects the
// results in suite order.
func RunAll(dev device.NIC) ([]Result, error) {
	var out []Result
	for _, a := range Suite() {
		res, err := a.Run(dev)
		if err != nil {
			return out, fmt.Errorf("attacks: %s vs %s: %w", a.Name, dev.Model(), err)
		}
		out = append(out, res)
	}
	return out, nil
}

// withPair launches a victim (steering TCP/80 to itself) and an
// attacker function, runs fn, and tears both down so a suite run never
// exhausts a small device's cores. The footprint is kept small because
// several models (faithfully) never recycle torn-down reservations.
func withPair(dev device.NIC, fn func(victim, attacker device.FuncID) (Result, error)) (Result, error) {
	const funcBytes = 256 << 10
	victim, err := dev.Launch(device.FuncSpec{
		Name:     "victim",
		MemBytes: funcBytes,
		Rules:    []pktio.MatchSpec{{Proto: pkt.ProtoTCP, DstPortLo: 80, DstPortHi: 80}},
	})
	if err != nil {
		return Result{}, err
	}
	defer dev.Teardown(victim)
	attacker, err := dev.Launch(device.FuncSpec{Name: "mallory", MemBytes: funcBytes})
	if err != nil {
		return Result{}, err
	}
	defer dev.Teardown(attacker)
	return fn(victim, attacker)
}

// scanFor sweeps the device's whole physical address range from the
// attacker's vantage point, 4KB at a time (chunks overlap by
// len(sig)-1 bytes so a straddling match is still found). Probe faults
// are skipped: on a commodity NIC nothing faults, on S-NIC everything
// outside the attacker's own reservation does.
func scanFor(dev device.NIC, attacker device.FuncID, sig []byte) (mem.Addr, bool) {
	const chunk = 4096
	if len(sig) == 0 || len(sig) > chunk {
		return 0, false
	}
	buf := make([]byte, chunk+len(sig)-1)
	total := dev.MemBytes()
	for base := uint64(0); base < total; base += chunk {
		n := uint64(len(buf))
		if base+n > total {
			n = total - base
		}
		if n < uint64(len(sig)) {
			break
		}
		if err := dev.ProbeRead(attacker, mem.Addr(base), buf[:n]); err != nil {
			continue
		}
		if i := bytes.Index(buf[:n], sig); i >= 0 {
			return mem.Addr(base + uint64(i)), true
		}
	}
	return 0, false
}

// Theft plants a secret in the victim's memory and has the attacker
// scan raw physical memory for it (§3.3's DPI ruleset theft).
func Theft(dev device.NIC, victim, attacker device.FuncID, secret []byte) (Result, error) {
	res := Result{Name: "dpi-ruleset-theft", Target: dev.Model()}
	if err := dev.Write(victim, 4096, secret); err != nil {
		return res, err
	}
	if pa, ok := scanFor(dev, attacker, secret); ok {
		res.Succeeded = true
		res.Detail = fmt.Sprintf("exfiltrated %d-byte ruleset from PA %#x", len(secret), pa)
		return res, nil
	}
	res.Detail = "no raw-memory path reached the ruleset"
	return res, nil
}

// Corruption injects a frame steered to the victim, then has the
// attacker locate the buffered payload in device memory and flip bytes
// before the victim consumes it (§3.3's MazuNAT packet corruption).
func Corruption(dev device.NIC, victim, attacker device.FuncID, frame []byte) (Result, error) {
	res := Result{Name: "packet-corruption", Target: dev.Model()}
	to, err := dev.Inject(frame)
	if err != nil {
		return res, err
	}
	if to != victim {
		return res, fmt.Errorf("attacks: frame steered to function %d, want %d", to, victim)
	}
	p, err := pkt.Parse(frame)
	if err != nil {
		return res, err
	}
	if pa, ok := scanFor(dev, attacker, p.Payload); ok {
		// Found the buffered frame: wreck the payload in place.
		_ = dev.ProbeWrite(attacker, pa, []byte{0xDE, 0xAD, 0xBE, 0xEF})
	}
	got, err := dev.Retrieve(victim, nil)
	if err != nil {
		return res, err
	}
	if !bytes.Equal(got, frame) {
		res.Succeeded = true
		res.Detail = "victim frame corrupted in shared DRAM before delivery"
		return res, nil
	}
	res.Detail = "victim frame intact; single-owner RAM held"
	return res, nil
}

// BusDoS floods the shared bus from one client, then issues a single
// victim transaction: on an unarbitrated bus the victim's wait exceeds
// the watchdog and the NIC hard-crashes; under temporal partitioning
// the victim is served inside its own epochs. The attacker issues its
// ops back-to-back (each at its own completion time), so it never
// starves itself even on a partitioned bus.
func BusDoS(dev device.NIC, attackOps int) (Result, error) {
	res := Result{Name: "io-bus-dos", Target: dev.Model()}
	const victimClient, attackerClient = 0, 1
	now := uint64(0)
	for i := 0; i < attackOps; i++ {
		done, err := dev.BusOp(attackerClient, now)
		if err != nil {
			// The attacker itself tripped the watchdog — still a crash.
			res.Succeeded = true
			res.Detail = fmt.Sprintf("NIC crashed after %d attacker ops", i)
			return res, nil
		}
		now = done
	}
	if _, err := dev.BusOp(victimClient, 0); err != nil {
		res.Succeeded = true
		res.Detail = "victim transaction tripped the watchdog; power cycle required"
		return res, nil
	}
	res.Detail = "victim served within its reserved epochs"
	return res, nil
}

// MgmtSnoop plants a secret in the victim's memory and reads it back
// through the management path (§3.2's BlueField secure-world hole; on
// S-NIC the denylist refuses the mapping).
func MgmtSnoop(dev device.NIC, victim device.FuncID, secret []byte) (Result, error) {
	res := Result{Name: "secure-os-snooping", Target: dev.Model()}
	const off = 8192
	if err := dev.Write(victim, off, secret); err != nil {
		return res, err
	}
	r, ok := dev.Region(victim)
	if !ok {
		return res, device.ErrNoFunc
	}
	got := make([]byte, len(secret))
	if err := dev.MgmtRead(r.Start+off, got); err != nil {
		res.Detail = fmt.Sprintf("management mapping refused: %v", err)
		return res, nil
	}
	if bytes.Equal(got, secret) {
		res.Succeeded = true
		res.Detail = "management OS read the tenant's secret wholesale"
		return res, nil
	}
	res.Detail = "management read returned unrelated bytes"
	return res, nil
}

// CryptoContention measures the shared-accelerator side channel: the
// attacker issues accelerator ops and infers from its own queueing
// delay whether the victim used the unit in each round. Returns the
// attacker's accuracy over rounds (~1.0 on a shared unit, ~0.5 — pure
// guessing — with per-function accelerator state).
func CryptoContention(dev device.NIC, victim, attacker device.FuncID, rounds int, seed uint64) float64 {
	rng := sim.NewRand(seed)
	correct := 0
	now := uint64(0)
	for i := 0; i < rounds; i++ {
		victimActive := rng.Intn(2) == 1
		var vdone uint64
		if victimActive {
			vdone, _ = dev.AcceleratorOp(victim, now)
		}
		done, waited := dev.AcceleratorOp(attacker, now)
		guess := waited > 0
		if guess == victimActive {
			correct++
		}
		if vdone > done {
			done = vdone
		}
		now = done + 10000 // let the accelerator drain between rounds
	}
	return float64(correct) / float64(rounds)
}

// PrimeProbe runs a cache prime+probe side channel: the victim touches
// one of two cache sets depending on each secret bit; the attacker primes
// both sets, lets the victim run, then probes and guesses the bit from
// which of its lines were evicted. It returns the attacker's accuracy
// over the given number of secret bits (≈1.0 on a shared cache, ≈0.5 —
// pure guessing — under S-NIC static partitioning).
func PrimeProbe(policy cache.Policy, bits int, seed uint64) (float64, error) {
	l2, err := cache.New(cache.Config{
		Name: "L2", Size: 64 << 10, LineSize: 64, Ways: 4,
		Policy: policy, Domains: 2,
	})
	if err != nil {
		return 0, err
	}
	const (
		attacker = 0
		victimD  = 1
	)
	setStride := uint64(l2.Sets()) * 64
	// Victim's two secret-dependent lines land in sets 3 and 7.
	victimLine := func(bit int) mem.Addr {
		if bit == 0 {
			return mem.Addr(3 * 64)
		}
		return mem.Addr(7 * 64)
	}
	// Attacker's priming lines for those sets (different tags).
	primeAddrs := func(set int) []mem.Addr {
		out := make([]mem.Addr, l2.Ways())
		for w := range out {
			out[w] = mem.Addr(uint64(set)*64 + uint64(w+1)*setStride + (1 << 30))
		}
		return out
	}
	rng := sim.NewRand(seed)
	coin := rng.Fork() // tie-break coin, decorrelated from the secret stream
	correct := 0
	for i := 0; i < bits; i++ {
		secret := rng.Intn(2)
		// Prime.
		for _, set := range []int{3, 7} {
			for _, a := range primeAddrs(set) {
				l2.Access(a, attacker, false)
			}
		}
		// Victim runs.
		l2.Access(victimLine(secret), victimD, false)
		// Probe: count misses per set.
		misses := map[int]int{}
		for _, set := range []int{3, 7} {
			for _, a := range primeAddrs(set) {
				if !l2.Access(a, attacker, false) {
					misses[set]++
				}
			}
		}
		guess := 0
		switch {
		case misses[7] > misses[3]:
			guess = 1
		case misses[7] == misses[3]:
			guess = coin.Intn(2) // no signal: coin flip
		}
		if guess == secret {
			correct++
		}
	}
	return float64(correct) / float64(bits), nil
}

// ControlledChannel reproduces the controlled-channel attack family the
// paper cites ([121], Xu et al.): an OS that demand-pages an isolated
// computation learns its secret-dependent page-access sequence from the
// fault stream. On a commodity NIC in SE-UM mode the kernel handles every
// NF TLB miss in software, so the channel exists; on S-NIC the locked TLB
// covers the whole reservation up front and no runtime fault ever reaches
// the NIC OS — a miss simply kills the function (§4.2).
//
// The victim reads page (2*i + bit) for each secret bit i. Returns the
// fraction of bits the "OS" recovers: 1.0 on the paged baseline, 0 under
// S-NIC (it observes nothing at all).
func ControlledChannel(snicMode bool, secret []byte) float64 {
	nPages := 2 * len(secret) * 8
	const page = 1 << 12

	if snicMode {
		// S-NIC: every page mapped and locked at launch. The victim runs;
		// the OS fault log stays empty.
		bank := tlb.NewBank(nPages)
		for p := 0; p < nPages; p++ {
			bank.Install(tlb.Entry{
				VA: tlb.VAddr(p * page), PA: mem.Addr(p * page),
				Size: page, Perm: tlb.PermRW,
			})
		}
		bank.Lock()
		faults := 0
		for i := 0; i < len(secret)*8; i++ {
			bit := int(secret[i/8]>>(i%8)) & 1
			if _, err := bank.Translate(tlb.VAddr((2*i+bit)*page), tlb.PermRead); err != nil {
				faults++ // would be fatal; also never happens
			}
		}
		_ = faults
		return 0 // the OS observed no fault sequence to decode
	}

	// Baseline SE-UM: the OS maps pages on demand and — as the attack
	// does — unmaps everything between victim steps so each access
	// faults. The fault address IS the secret.
	osView := make(map[int]bool) // pages currently mapped
	var faultLog []int
	access := func(pageIdx int) {
		if !osView[pageIdx] {
			faultLog = append(faultLog, pageIdx) // OS fault handler runs
			osView[pageIdx] = true
		}
	}
	recovered := make([]byte, len(secret))
	for i := 0; i < len(secret)*8; i++ {
		// OS "controls the channel": revoke all mappings before the step.
		osView = make(map[int]bool)
		bit := int(secret[i/8]>>(i%8)) & 1
		access(2*i + bit)
		// Decode from the fault stream.
		last := faultLog[len(faultLog)-1]
		if last%2 == 1 {
			recovered[i/8] |= 1 << (i % 8)
		}
	}
	match := 0
	for i := 0; i < len(secret)*8; i++ {
		if (recovered[i/8]>>(i%8))&1 == (secret[i/8]>>(i%8))&1 {
			match++
		}
	}
	return float64(match) / float64(len(secret)*8)
}

// Watermark runs the flow-watermarking attack of Bates et al. [11], which
// §4.5 credits temporal partitioning with eliminating: a sender "marks" a
// co-resident victim's traffic by modulating shared-bus pressure in a
// known bit pattern, and a downstream observer recovers the pattern from
// the victim's per-window packet timings. Returns the decoder's bit
// accuracy: ~1.0 over a FIFO bus, ~0.5 (chance) under temporal
// partitioning, where the victim's service schedule is independent of the
// attacker.
func Watermark(mk func(domains int) bus.Arbiter, bits int, seed uint64) float64 {
	arb := mk(2)
	rng := sim.NewRand(seed)
	coin := rng.Fork()
	const (
		opsPerWindow = 40
		opGap        = 30 // victim inter-op spacing (cycles)
		dur          = 8
	)
	var latencies []uint64
	pattern := make([]int, bits)
	vnow, anow := uint64(0), uint64(0)
	for w := 0; w < bits; w++ {
		pattern[w] = rng.Intn(2)
		start := vnow
		for op := 0; op < opsPerWindow; op++ {
			if pattern[w] == 1 {
				// Marked window: the attacker floods between victim ops.
				for j := 0; j < 3; j++ {
					if anow < vnow {
						anow = vnow
					}
					anow = arb.Request(1, anow, dur) + dur
				}
			}
			g := arb.Request(0, vnow, dur)
			vnow = g + dur + opGap
		}
		latencies = append(latencies, vnow-start)
		// Inter-window guard gap lets the bus drain so marks don't smear
		// into the next window (the attack paper synchronizes windows the
		// same way).
		vnow += 2000
		if anow < vnow {
			anow = vnow
		}
	}
	// Decode: threshold at the midpoint of the observed latency range.
	sorted := append([]uint64(nil), latencies...)
	sortU64(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	threshold := lo + (hi-lo)/2
	correct := 0
	for w, lat := range latencies {
		guess := 0
		switch {
		case lat > threshold:
			guess = 1
		case lat == threshold:
			// No spread at all (non-interfering bus): pure guessing.
			guess = coin.Intn(2)
		}
		if guess == pattern[w] {
			correct++
		}
	}
	return float64(correct) / float64(bits)
}

func sortU64(x []uint64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

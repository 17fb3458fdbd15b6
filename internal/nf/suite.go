package nf

import (
	"fmt"

	"snic/internal/sim"
	"snic/internal/trace"
)

// SuiteConfig sizes the standard six-NF evaluation suite. Zero values
// select the paper's parameters (§5.1).
type SuiteConfig struct {
	FirewallRules int // default 643 (Emerging Threats)
	DPIPatterns   int // default 33471 (six open rulesets)
	Routes        int // default 16000 (NetBricks)
	Backends      int // default 64
	Seed          uint64
}

func (c *SuiteConfig) defaults() {
	if c.FirewallRules == 0 {
		c.FirewallRules = 643
	}
	if c.DPIPatterns == 0 {
		c.DPIPatterns = 33471
	}
	if c.Routes == 0 {
		c.Routes = 16000
	}
	if c.Backends == 0 {
		c.Backends = 64
	}
	if c.Seed == 0 {
		c.Seed = 0x5EED
	}
}

// TestScale returns a configuration small enough for unit tests while
// preserving every code path.
func TestScale(seed uint64) SuiteConfig {
	return SuiteConfig{FirewallRules: 64, DPIPatterns: 200, Routes: 400, Backends: 8, Seed: seed}
}

// New constructs one NF by table name with the given configuration.
func New(name string, cfg SuiteConfig) (NF, error) {
	cfg.defaults()
	rng := sim.NewRand(cfg.Seed)
	switch name {
	case "FW":
		return NewFirewall(trace.FirewallRules(rng, cfg.FirewallRules)), nil
	case "DPI":
		return NewDPI(trace.DPIPatterns(rng, cfg.DPIPatterns), false)
	case "NAT":
		return NewNAT(0xC6336401), nil // 198.51.100.1
	case "LB":
		return NewLB(trace.Backends(cfg.Backends))
	case "LPM":
		return NewLPM(trace.Routes(rng, cfg.Routes))
	case "Mon":
		return NewMonitor(nil), nil
	}
	return nil, fmt.Errorf("nf: unknown NF %q", name)
}

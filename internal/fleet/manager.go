package fleet

import (
	"fmt"
	"sort"
	"sync"

	"snic/internal/device"
	"snic/internal/obs"
	"snic/internal/pktio"
)

// deviceState is the lifecycle of a managed device.
type deviceState string

const (
	// stateActive accepts placements and serves traffic.
	stateActive deviceState = "active"
	// stateDraining holds no new placements; existing NFs have already
	// been migrated away (drain is all-or-nothing).
	stateDraining deviceState = "draining"
	// stateFailed devices are dead: their NFs were re-placed on
	// survivors where capacity allowed.
	stateFailed deviceState = "failed"
)

// managedDevice is one fleet member: the NIC instance plus the
// scheduler's capacity accounting and placement table.
type managedDevice struct {
	name     string
	spec     DeviceSpec
	nic      device.NIC
	state    deviceState
	capacity device.Resources
	used     device.Resources
	placed   map[string]*Placement // key: tenant "/" nf
	churn    DeviceChurn           // cumulative churn accounting (see churn.go)
}

func (d *managedDevice) free() device.Resources { return d.capacity.Sub(d.used) }

// sortedPlacementKeys returns the device's placement keys sorted, the
// only iteration order the manager ever exposes.
func (d *managedDevice) sortedPlacementKeys() []string {
	keys := make([]string, 0, len(d.placed))
	for k := range d.placed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Placement is one NF instance bound to one device.
type Placement struct {
	Tenant string
	NF     string
	Device string
	Func   device.FuncID
	Port   uint16
	Spec   NFSpec
	Demand device.Resources // as computed for the hosting device
}

func (p *Placement) key() string { return p.Tenant + "/" + p.NF }

// tenant is one admitted principal.
type tenant struct {
	name   string
	quota  ResourceSpec
	used   device.Resources
	placed map[string]*Placement // key: nf name
}

// Stats are the manager's cumulative scheduling counters. They are
// plain fields (not obs reads): the oper-state dump must never depend
// on a metric value.
type Stats struct {
	Admitted     uint64 `json:"admitted"`
	Evicted      uint64 `json:"evicted"`
	Placed       uint64 `json:"placed"`
	Removed      uint64 `json:"removed"`
	Rejected     uint64 `json:"rejected"`
	Migrations   uint64 `json:"migrations"`
	Drains       uint64 `json:"drains"`
	Failovers    uint64 `json:"failovers"`
	LostNFs      uint64 `json:"lost_nfs"`
	Bursts       uint64 `json:"bursts"`
	Packets      uint64 `json:"packets"`
	Drops        uint64 `json:"drops"`
	PacketBytes  uint64 `json:"packet_bytes"`
	AccelOps     uint64 `json:"accel_ops"`
	BusOps       uint64 `json:"bus_ops"`
	MemRoundtrip uint64 `json:"mem_roundtrips"`

	// Churn counters carry omitempty so every golden pinned before the
	// churn op existed stays byte-identical until a churn run happens.
	ChurnRuns      uint64 `json:"churn_runs,omitempty"`
	ChurnLaunches  uint64 `json:"churn_launches,omitempty"`
	ChurnFails     uint64 `json:"churn_fails,omitempty"`
	ChurnAttests   uint64 `json:"churn_attests,omitempty"`
	ChurnTeardowns uint64 `json:"churn_teardowns,omitempty"`
}

// Config parameterizes a Manager.
type Config struct {
	// Seed is the base of every derived stream in this fleet.
	Seed uint64
	// Policy selects the placement strategy: "bestfit" (default),
	// "firstfit", or "spread".
	Policy string
	// Workers bounds the engine pool traffic bursts fan out on; <= 0
	// selects GOMAXPROCS. Results are byte-identical for any value.
	Workers int
	// Obs, if set, collects the fleet's simulated-time metrics and
	// traces. Devices with native instrumentation (S-NIC) attach to the
	// same collector under their fleet name.
	Obs *obs.Registry
	// Progress, if set, receives live burst telemetry (jobs per burst)
	// served at the API's /v1/progress. Quarantined like obs.Wall:
	// write-only from the fleet, read only northbound.
	Progress *obs.Progress
}

// Manager is the fleet control plane. All exported methods are
// safe for concurrent use (the northbound API serializes through one
// mutex); determinism comes from the serialized event order, never from
// scheduling.
type Manager struct {
	mu       sync.Mutex
	cfg      Config
	strategy strategy
	clock    uint64
	devices  map[string]*managedDevice
	tenants  map[string]*tenant
	nextPort uint16
	bursts   uint64
	churns   uint64
	stats    Stats

	// obs write handles (nil-safe when no collector is attached).
	ctrAdmitted  *obs.Counter
	ctrEvicted   *obs.Counter
	ctrPlaced    *obs.Counter
	ctrRemoved   *obs.Counter
	ctrRejected  *obs.Counter
	ctrMigrated  *obs.Counter
	ctrLost      *obs.Counter
	ctrDrains    *obs.Counter
	ctrFailovers *obs.Counter
}

// NewManager builds an empty fleet.
func NewManager(cfg Config) (*Manager, error) {
	st, err := strategyFor(cfg.Policy)
	if err != nil {
		return nil, err
	}
	if cfg.Policy == "" {
		cfg.Policy = st.name()
	}
	m := &Manager{
		cfg:      cfg,
		strategy: st,
		devices:  make(map[string]*managedDevice),
		tenants:  make(map[string]*tenant),
		nextPort: 10000,
	}
	ctr := func(name string) *obs.Counter {
		return cfg.Obs.Counter(obs.Label{Device: "fleet", Component: "ctrl", Name: name})
	}
	m.ctrAdmitted = ctr("tenants_admitted")
	m.ctrEvicted = ctr("tenants_evicted")
	m.ctrPlaced = ctr("nfs_placed")
	m.ctrRemoved = ctr("nfs_removed")
	m.ctrRejected = ctr("placements_rejected")
	m.ctrMigrated = ctr("nfs_migrated")
	m.ctrLost = ctr("nfs_lost")
	m.ctrDrains = ctr("device_drains")
	m.ctrFailovers = ctr("device_failovers")
	return m, nil
}

// Seed returns the fleet's base seed.
func (m *Manager) Seed() uint64 { return m.cfg.Seed }

// Policy returns the active placement strategy name.
func (m *Manager) Policy() string { return m.cfg.Policy }

// Clock returns the current simulated cycle.
func (m *Manager) Clock() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clock
}

// Advance moves the fleet clock forward by cycles.
func (m *Manager) Advance(cycles uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock += cycles
	return m.clock
}

// AddDevice builds the spec through the device factory and registers it
// under spec.Name. The device's serial is its fleet name, so natively
// instrumented models (S-NIC) label their metrics and trace tracks per
// fleet member.
func (m *Manager) AddDevice(spec DeviceSpec) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if spec.Name == "" || spec.Model == "" {
		return fmt.Errorf("fleet: device needs name and model")
	}
	if err := checkMemMB("device", spec.MemMB); err != nil {
		return err
	}
	if _, dup := m.devices[spec.Name]; dup {
		return fmt.Errorf("%w: device %q", ErrExists, spec.Name)
	}
	nic, err := device.New(device.Spec{
		Model:    spec.Model,
		Cores:    spec.Cores,
		MemBytes: spec.MemMB << 20,
		Serial:   spec.Name,
	})
	if err != nil {
		return err
	}
	if sn, ok := nic.(*device.SNIC); ok && m.cfg.Obs != nil {
		sn.Underlying().Observe(m.cfg.Obs, "fleet/"+spec.Name)
	}
	md := &managedDevice{
		name:     spec.Name,
		spec:     spec,
		nic:      nic,
		state:    stateActive,
		capacity: nic.Resources(),
		placed:   make(map[string]*Placement),
	}
	m.devices[spec.Name] = md
	m.gauges(md)
	return nil
}

// gauges refreshes the per-device scheduler gauges after any accounting
// change (writes only; nil-safe without a collector).
func (m *Manager) gauges(d *managedDevice) {
	g := func(name string, v int64) {
		m.cfg.Obs.Gauge(obs.Label{
			Device: "fleet/" + d.name, Component: "sched", Name: name,
		}).Set(v)
	}
	free := d.free()
	g("live_nfs", int64(len(d.placed)))
	g("free_cores", int64(free.Cores))
	g("free_mem_bytes", int64(free.MemBytes))
	g("free_tlb_entries", int64(free.TLBEntries))
	g("free_cache_ways", int64(free.CacheWays))
	g("free_accel_clusters", int64(free.AccelClusters))
}

// event traces one control-plane action on the fleet track.
func (m *Manager) event(name string) {
	m.cfg.Obs.Tracer("fleet").Event("ctrl", name, m.clock)
}

// Admit registers a tenant under a quota (zero axes are unlimited).
func (m *Manager) Admit(name string, quota ResourceSpec) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name == "" {
		return fmt.Errorf("fleet: tenant needs a name")
	}
	if err := checkMemMB("quota", quota.MemMB); err != nil {
		return err
	}
	if _, dup := m.tenants[name]; dup {
		return fmt.Errorf("%w: tenant %q", ErrExists, name)
	}
	m.tenants[name] = &tenant{
		name:   name,
		quota:  quota,
		placed: make(map[string]*Placement),
	}
	m.stats.Admitted++
	m.ctrAdmitted.Inc()
	m.event("admit " + name)
	return nil
}

// Evict tears down every placement of the tenant and removes it.
func (m *Manager) Evict(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	tn, ok := m.tenants[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTenant, name)
	}
	nfs := make([]string, 0, len(tn.placed))
	for nf := range tn.placed {
		nfs = append(nfs, nf)
	}
	sort.Strings(nfs)
	for _, nf := range nfs {
		if err := m.removeLocked(tn, nf); err != nil {
			return err
		}
	}
	delete(m.tenants, name)
	m.stats.Evicted++
	m.ctrEvicted.Inc()
	m.event("evict " + name)
	return nil
}

// Place admits one NF instance for the tenant and binds it to the
// device the strategy picks. Placement is atomic: on any launch error
// nothing is accounted.
func (m *Manager) Place(tenantName string, spec NFSpec) (*Placement, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tn, ok := m.tenants[tenantName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTenant, tenantName)
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("fleet: NF needs a name")
	}
	if err := checkMemMB("NF", spec.MemMB); err != nil {
		return nil, err
	}
	if _, dup := tn.placed[spec.Name]; dup {
		m.reject()
		return nil, fmt.Errorf("%w: NF %q of tenant %q", ErrExists, spec.Name, tenantName)
	}
	spec.defaults()
	if spec.Port == 0 {
		spec.Port = m.nextPort
		m.nextPort++
	}
	pl, err := m.placeLocked(tn, spec, true)
	if err != nil {
		m.reject()
		return nil, err
	}
	m.stats.Placed++
	m.ctrPlaced.Inc()
	m.event("place " + pl.key() + " on " + pl.Device)
	return pl, nil
}

func (m *Manager) reject() {
	m.stats.Rejected++
	m.ctrRejected.Inc()
}

// placeLocked runs quota check, strategy pick, and launch. Callers hold
// the lock and have defaulted the spec. checkQuota is false for
// migrations: the NF already counts against its tenant, so relocating
// it must not fail the quota.
//
// A device can refuse a launch for modeled reasons outside the vector —
// switch-port buffer reservations, or a commodity allocator that never
// reclaims — so a launch failure marks that device full for this
// attempt and the strategy re-picks among the rest. Placement fails
// with ErrNoCapacity only when every candidate has refused.
func (m *Manager) placeLocked(tn *tenant, spec NFSpec, checkQuota bool) (*Placement, error) {
	excluded := make(map[string]bool)
	var lastLaunch error
	for {
		cands := m.candidates()
		if len(excluded) > 0 {
			kept := cands[:0]
			for _, c := range cands {
				if !excluded[c.name] {
					kept = append(kept, c)
				}
			}
			cands = kept
		}
		devName, demand, err := m.strategy.pick(cands, spec)
		if err != nil {
			if lastLaunch != nil {
				return nil, fmt.Errorf("%w: %s (last device refusal: %v)",
					ErrNoCapacity, spec.Name, lastLaunch)
			}
			return nil, err
		}
		// The demand vector depends on the picked device's frame size,
		// so the quota check sits after the pick.
		if checkQuota && !tn.quota.allows(tn.used, demand) {
			return nil, fmt.Errorf("%w: tenant %q placing %q", ErrQuota, tn.name, spec.Name)
		}
		md := m.devices[devName]
		id, err := md.nic.Launch(device.FuncSpec{
			Name:     tn.name + "/" + spec.Name,
			MemBytes: spec.MemMB << 20,
			Rules: []pktio.MatchSpec{{
				Proto: 17, DstPortLo: spec.Port, DstPortHi: spec.Port, // UDP
			}},
		})
		if err != nil {
			excluded[devName] = true
			lastLaunch = err
			continue
		}
		pl := &Placement{
			Tenant: tn.name,
			NF:     spec.Name,
			Device: devName,
			Func:   id,
			Port:   spec.Port,
			Spec:   spec,
			Demand: demand,
		}
		md.used = md.used.Add(demand)
		md.placed[pl.key()] = pl
		tn.used = tn.used.Add(demand)
		tn.placed[spec.Name] = pl
		m.gauges(md)
		return pl, nil
	}
}

// candidates returns the active devices in sorted-name order.
func (m *Manager) candidates() []*managedDevice {
	names := make([]string, 0, len(m.devices))
	for n, d := range m.devices {
		if d.state == stateActive {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]*managedDevice, len(names))
	for i, n := range names {
		out[i] = m.devices[n]
	}
	return out
}

// Remove tears down one NF placement.
func (m *Manager) Remove(tenantName, nfName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	tn, ok := m.tenants[tenantName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTenant, tenantName)
	}
	return m.removeLocked(tn, nfName)
}

func (m *Manager) removeLocked(tn *tenant, nfName string) error {
	pl, ok := tn.placed[nfName]
	if !ok {
		return fmt.Errorf("%w: %q of tenant %q", ErrNoNF, nfName, tn.name)
	}
	md := m.devices[pl.Device]
	if md.state != stateFailed {
		if err := md.nic.Teardown(pl.Func); err != nil {
			return fmt.Errorf("fleet: teardown %s on %s: %w", pl.key(), md.name, err)
		}
	}
	md.used = md.used.Sub(pl.Demand)
	delete(md.placed, pl.key())
	tn.used = tn.used.Sub(pl.Demand)
	delete(tn.placed, nfName)
	m.stats.Removed++
	m.ctrRemoved.Inc()
	m.event("remove " + pl.key())
	m.gauges(md)
	return nil
}

// Drain migrates every NF off the device, then marks it draining.
// The drain is all-or-nothing: migrations are planned against a copy of
// the remaining-capacity accounting first, and if any NF has no home
// the drain fails with ErrNoCapacity, leaving the fleet untouched —
// a drain never loses an NF.
func (m *Manager) Drain(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	md, ok := m.devices[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoDevice, name)
	}
	if md.state != stateActive {
		return fmt.Errorf("%w: %s is %s", ErrDeviceState, name, md.state)
	}
	md.state = stateDraining // excluded from its own migration targets
	if err := m.planAndMove(md, true); err != nil {
		md.state = stateActive
		return err
	}
	m.stats.Drains++
	m.ctrDrains.Inc()
	m.event("drain " + name)
	m.gauges(md)
	return nil
}

// Undrain returns a drained device to service.
func (m *Manager) Undrain(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	md, ok := m.devices[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoDevice, name)
	}
	if md.state != stateDraining {
		return fmt.Errorf("%w: %s is %s", ErrDeviceState, name, md.state)
	}
	md.state = stateActive
	m.event("undrain " + name)
	return nil
}

// Fail marks the device dead and re-places its NFs on the survivors
// (HA failover). Unlike Drain, failover is not atomic — the device is
// already gone — so NFs that fit nowhere are lost and counted.
func (m *Manager) Fail(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	md, ok := m.devices[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoDevice, name)
	}
	if md.state == stateFailed {
		return fmt.Errorf("%w: %s is already failed", ErrDeviceState, name)
	}
	md.state = stateFailed
	if err := m.planAndMove(md, false); err != nil {
		return err
	}
	m.stats.Failovers++
	m.ctrFailovers.Inc()
	m.event("fail " + name)
	m.gauges(md)
	return nil
}

// planAndMove relocates every placement of md onto other active
// devices.
//
// Drain (atomic): the whole move is first planned against a scratch
// copy of the free-capacity table; if any NF has no home by the vector
// model the drain aborts untouched with ErrNoCapacity. Execution is
// make-before-break — the replacement launches on a survivor before the
// source instance is torn down — so even if a device refuses a planned
// launch for sub-vector reasons (port buffers, allocator exhaustion),
// the NF stays live on the draining source and the drain reports
// ErrNoCapacity. A drain never loses an NF.
//
// Failover (!atomic): the source device is dead, so there is nothing to
// tear down and nothing to keep serving; each NF is re-placed
// best-effort and the homeless are lost and counted.
func (m *Manager) planAndMove(md *managedDevice, atomic bool) error {
	keys := md.sortedPlacementKeys()
	if atomic {
		scratch := make(map[string]device.Resources)
		for _, c := range m.candidates() {
			scratch[c.name] = c.free()
		}
		for _, k := range keys {
			pl := md.placed[k]
			target, demand, err := m.strategy.pickScratch(m.candidates(), scratch, pl.Spec)
			if err != nil {
				return fmt.Errorf("%w: draining %s, %s has no home", ErrNoCapacity, md.name, pl.key())
			}
			scratch[target] = scratch[target].Sub(demand)
		}
	}
	var firstErr error
	for _, k := range keys {
		pl := md.placed[k]
		tn := m.tenants[pl.Tenant]
		if atomic {
			// Make before break. placeLocked overwrites tn.placed[NF]
			// with the new home; the old instance's accounting is
			// released only after the new one is live.
			moved, err := m.placeLocked(tn, pl.Spec, false)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: draining %s, %s has no home (%v)",
						ErrNoCapacity, md.name, pl.key(), err)
				}
				continue
			}
			if terr := md.nic.Teardown(pl.Func); terr != nil {
				return fmt.Errorf("fleet: drain teardown %s: %w", pl.key(), terr)
			}
			md.used = md.used.Sub(pl.Demand)
			delete(md.placed, k)
			tn.used = tn.used.Sub(pl.Demand)
			m.stats.Migrations++
			m.ctrMigrated.Inc()
			m.event("migrate " + pl.key() + " " + md.name + ">" + moved.Device)
			continue
		}
		// Failover: release the dead instance, then re-place.
		md.used = md.used.Sub(pl.Demand)
		delete(md.placed, k)
		tn.used = tn.used.Sub(pl.Demand)
		delete(tn.placed, pl.NF)
		moved, err := m.placeLocked(tn, pl.Spec, false)
		if err != nil {
			m.stats.LostNFs++
			m.ctrLost.Inc()
			m.event("lost " + pl.key())
			continue
		}
		m.stats.Migrations++
		m.ctrMigrated.Inc()
		m.event("migrate " + pl.key() + " " + md.name + ">" + moved.Device)
	}
	m.gauges(md)
	return firstErr
}

// Stats returns a copy of the cumulative scheduler counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

package mem

import "fmt"

// Pooled is the reserved owner marking frames parked in the warm arena
// pool: scrubbed at teardown, zero-backed, waiting for the next launch.
// It sits at the top of the Owner space so it can never collide with an
// NF id under any realistic churn volume (ids grow from FirstNF and a
// device reboot resets them long before 0xFFFF).
const Pooled Owner = ^Owner(0)

// SetPoolCapacity bounds the warm arena at frames (0 disables pooling
// and drains anything currently parked back to the free list). The
// capacity is a device-layer policy knob — see device.WarmPoolFrames —
// not a property of the DRAM itself, which is why it defaults off.
func (p *Physical) SetPoolCapacity(frames uint64) {
	if frames > p.nframes {
		frames = p.nframes
	}
	p.poolCap = frames
	if p.poolCap == 0 {
		p.DrainPool()
	}
}

// PoolFrames returns the number of frames currently parked in the warm
// arena.
func (p *Physical) PoolFrames() uint64 { return p.poolFrames }

// ReleaseAllPooled scrubs every frame owned by owner exactly like
// ReleaseAll — backing deleted, so the frames read back as zero — but
// parks up to the arena's remaining capacity under the Pooled owner
// instead of returning it to the general free list. The scrub still
// happens here, on the teardown path; pooling only moves the *reuse*
// off the launch critical path. Returns the bytes scrubbed (the
// Figure 6 nf_destroy quantity, pooled or not) and the frames parked.
func (p *Physical) ReleaseAllPooled(owner Owner) (scrubbed, pooled uint64) {
	if owner == Free || owner == Pooled {
		return 0, 0
	}
	for f := uint64(0); f < p.nframes; f++ {
		if p.owner[f] != owner {
			continue
		}
		delete(p.frames, f) // scrub: lazily-backed frames read back as zero
		scrubbed += p.frameSize
		if p.poolFrames < p.poolCap {
			p.owner[f] = Pooled
			p.poolFrames++
			pooled++
		} else {
			p.owner[f] = Free
			if f < p.freeHint {
				p.freeHint = f
			}
		}
	}
	if pooled > 0 {
		// Recomputing from the ownership map merges runs parked by
		// different NFs into maximal contiguous ranges.
		p.pool = p.OwnedRanges(Pooled)
	}
	return scrubbed, pooled
}

// AllocPooled allocates nframes for owner, serving from a parked warm
// run when one fits (hit) and falling back to the general allocator
// otherwise (miss). Exact-size runs are preferred — churn workloads
// launch uniformly sized functions, so exact fits dominate and the
// arena does not fragment — then the first run large enough, both in
// address order for determinism.
func (p *Physical) AllocPooled(owner Owner, nframes uint64) (Range, bool, error) {
	if owner == Free || owner == Pooled {
		return Range{}, false, fmt.Errorf("mem: cannot allocate to reserved owner %d", owner)
	}
	if nframes == 0 {
		return Range{}, false, fmt.Errorf("mem: bad allocation size %d", nframes)
	}
	pick := -1
	for i, r := range p.pool {
		if r.Frames == nframes {
			pick = i
			break
		}
		if pick < 0 && r.Frames > nframes {
			pick = i
		}
	}
	if pick < 0 {
		r, err := p.Alloc(owner, nframes)
		return r, false, err
	}
	r := p.pool[pick]
	first := uint64(r.Start) / p.frameSize
	for f := first; f < first+nframes; f++ {
		p.owner[f] = owner
	}
	p.poolFrames -= nframes
	if r.Frames == nframes {
		p.pool = append(p.pool[:pick], p.pool[pick+1:]...)
	} else {
		p.pool[pick] = Range{Start: r.Start + Addr(nframes*p.frameSize), Frames: r.Frames - nframes}
	}
	return Range{Start: r.Start, Frames: nframes}, true, nil
}

// AllocBytesPooled is AllocPooled sized in bytes, mirroring AllocBytes.
func (p *Physical) AllocBytesPooled(owner Owner, n uint64) (Range, bool, error) {
	frames := (n + p.frameSize - 1) / p.frameSize
	if frames == 0 {
		frames = 1
	}
	return p.AllocPooled(owner, frames)
}

// DrainPool returns every parked frame to the general free list and
// reports how many frames it drained. Reboot and pool-disable paths use
// it so no memory stays reserved for a policy that is no longer active.
func (p *Physical) DrainPool() uint64 {
	var n uint64
	for f := uint64(0); f < p.nframes; f++ {
		if p.owner[f] == Pooled {
			p.owner[f] = Free
			n++
			if f < p.freeHint {
				p.freeHint = f
			}
		}
	}
	p.pool = nil
	p.poolFrames = 0
	return n
}

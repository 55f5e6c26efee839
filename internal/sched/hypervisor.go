package sched

import (
	"fmt"
	"strings"

	"ctxback/internal/preempt"
)

// The serving hypervisor re-arbitrates per-tenant SM shares from
// measured demand on a fixed cadence and rebalances devices by
// migrating checkpointed jobs through the warm snapshot pool. Both
// moves run serially at global barriers on merged fleet state, so every
// decision lands in the log byte-identically at any worker count.

// HypervisorConfig configures the online re-arbitration loop.
type HypervisorConfig struct {
	// Every is the re-arbitration cadence in cycles (rounded up to the
	// admission window). 0 disables the hypervisor: no quotas, no
	// migrations.
	Every int64
	// MigrateThreshold triggers a rebalancing migration when the most
	// loaded device's outstanding jobs exceed the least loaded's by at
	// least this many. 0 defaults to 8; negative disables migration.
	MigrateThreshold int
	// StarveWindows is how many consecutive zero-share re-arbitrations a
	// tenant with demand endures before the hypervisor forcibly grants
	// it one SM. 0 defaults to 2.
	StarveWindows int
}

func (h *HypervisorConfig) enabled() bool { return h.Every > 0 }

func (h *HypervisorConfig) defaults() {
	if h.MigrateThreshold == 0 {
		h.MigrateThreshold = 8
	}
	if h.StarveWindows <= 0 {
		h.StarveWindows = 2
	}
}

// hypervisor is the serve loop's arbitration state.
type hypervisor struct {
	cfg    HypervisorConfig
	shares []int // fleet-wide SMs granted per tenant at the last pass
	starve []int // consecutive zero-share passes with pending demand

	rearbs       int
	migrations   int
	starveBoosts int
}

func newHypervisor(cfg HypervisorConfig, tenants int) *hypervisor {
	cfg.defaults()
	return &hypervisor{cfg: cfg,
		shares: make([]int, tenants),
		starve: make([]int, tenants),
	}
}

// rearbitrate recomputes fleet-wide tenant SM shares proportional to
// demand (largest-remainder apportionment, ties to the lower tenant
// id), applies a starvation floor, and writes per-device quotas. demand
// counts a tenant's runnable appetite: deferred + admitted-incomplete
// jobs. Returns true when the share vector changed.
func (h *hypervisor) rearbitrate(sv *server, now int64) bool {
	h.rearbs++
	tenants := len(h.shares)
	demand := make([]int64, tenants)
	var total int64
	for t := 0; t < tenants; t++ {
		d := int64(sv.admit.tenantBacklog(t))
		for _, dev := range sv.f.devices {
			if dev.alive() {
				d += int64(dev.incomplete[t])
			}
		}
		demand[t] = d
		total += d
	}

	alive := 0
	for _, dev := range sv.f.devices {
		if dev.alive() {
			alive++
		}
	}
	totalSMs := alive * sv.f.cfg.Dev.NumSMs

	next := make([]int, tenants)
	if total > 0 && totalSMs > 0 {
		// Largest-remainder apportionment of totalSMs over demand.
		granted := 0
		rem := make([]int64, tenants)
		for t := 0; t < tenants; t++ {
			g := int64(totalSMs) * demand[t]
			next[t] = int(g / total)
			rem[t] = g % total
			granted += next[t]
		}
		for granted < totalSMs {
			best := -1
			for t := 0; t < tenants; t++ {
				if demand[t] == 0 {
					continue
				}
				if best < 0 || rem[t] > rem[best] {
					best = t
				}
			}
			if best < 0 {
				break
			}
			next[best]++
			rem[best] = -1
			granted++
		}
		// Starvation floor: a tenant with demand shut out for
		// StarveWindows straight passes takes one SM from the fattest
		// share.
		for t := 0; t < tenants; t++ {
			if demand[t] == 0 || next[t] > 0 {
				continue
			}
			if h.starve[t] < h.cfg.StarveWindows {
				continue
			}
			donor := -1
			for u := 0; u < tenants; u++ {
				if next[u] > 1 && (donor < 0 || next[u] > next[donor]) {
					donor = u
				}
			}
			if donor < 0 {
				continue
			}
			next[donor]--
			next[t]++
			h.starveBoosts++
			sv.log(now, "starve-boost", t, -1,
				fmt.Sprintf("+1 SM from t%d after %d dry passes", donor, h.starve[t]))
		}
	}
	for t := 0; t < tenants; t++ {
		if demand[t] > 0 && next[t] == 0 {
			h.starve[t]++
		} else {
			h.starve[t] = 0
		}
	}

	changed := false
	for t := range next {
		if next[t] != h.shares[t] {
			changed = true
			break
		}
	}
	h.shares = next

	// Per-device quota: an even ceiling split of each tenant's share.
	// The quota is a cap, not a reservation — ceilings may oversubscribe
	// a device, which keeps the schedule work-conserving.
	for _, dev := range sv.f.devices {
		if !dev.alive() {
			continue
		}
		q := make(map[int]int, tenants)
		for t := 0; t < tenants; t++ {
			if next[t] > 0 {
				q[t] = (next[t] + alive - 1) / alive
			}
		}
		dev.s.quota = q
	}

	if changed {
		var b strings.Builder
		for t, s := range next {
			if t > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "t%d=%d", t, s)
		}
		sv.log(now, "shares", -1, -1, b.String())
	}
	return changed
}

// maybeMigrate performs at most one rebalancing move per pass: the most
// loaded device is checkpointed, its in-flight jobs restore onto a warm
// shell (a fresh device id), and its not-yet-launched backlog re-enters
// the admission queues to be re-routed by load. The donor retires. The
// restored device is excluded from routing — and from being the next
// move's destination — until the modeled restore latency (setup +
// transfer) has elapsed.
func (h *hypervisor) maybeMigrate(sv *server, now int64) error {
	f := sv.f
	if h.cfg.MigrateThreshold < 0 || !preempt.Relocatable(f.kind) {
		return nil
	}
	var donor *device
	alive := 0
	for _, dev := range f.devices {
		if !dev.alive() {
			continue
		}
		alive++
		if donor == nil || dev.outstanding() > donor.outstanding() {
			donor = dev
		}
	}
	// A device still inside its restore block cannot take load: counting
	// it as the lightest would move the donor's backlog onto a shell that
	// cannot run it, and the next pass would move it straight back.
	lightest := f.route(func(d *device) bool { return d.blockedUntil <= now })
	if alive < 2 || lightest == nil ||
		donor.outstanding()-lightest.outstanding() < h.cfg.MigrateThreshold {
		return nil
	}
	// The move only helps if the donor has unlaunched work to
	// redistribute (launched jobs carry with the checkpoint).
	requeueable := 0
	for _, rj := range donor.s.jobs {
		if rj.launch == nil && rj.complete == 0 {
			requeueable++
		}
	}
	if requeueable == 0 {
		return nil
	}

	f.epoch++
	c, err := donor.s.checkpoint(f.epoch)
	if err != nil {
		return fmt.Errorf("sched: migration checkpoint of device %d: %w", donor.id, err)
	}
	nd, res, orphans, err := f.relocate(donor, c)
	if err != nil {
		return err
	}
	nd.blockedUntil = now + res.Outcome.RestoreCycles()
	// Orphans re-enter admission token-paid at their original arrival
	// order.
	for _, rj := range orphans {
		sv.admit.requeue(rj.job)
	}
	h.migrations++
	sv.log(now, "migrate", -1, nd.id,
		fmt.Sprintf("from dev%d: carry=%d requeue=%d %s setup=%d transfer=%d",
			donor.id, len(nd.s.jobs), len(orphans), warmCold(res.Outcome.Warm),
			res.Outcome.SetupCycles, res.Outcome.TransferCycles))
	if f.pool != nil {
		// Top the warm pool back up so the next migration can also land
		// on a prepared shell; a refill failure only means a cold shell
		// later, not a lost move.
		_ = f.pool.Refill(1)
	}
	return nil
}

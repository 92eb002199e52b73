package repository

// Borrowed-digest tier: the repository side of the shared-intelligence
// gateway fabric.
//
// Every gateway's repository learns a replica's windows only from its own
// traffic, so K gateways pay K cold starts per replica. The digest tier lets
// a repository export its *locally measured* window histograms as mergeable
// wire.WindowDigest values and absorb peers' digests into a separate
// "borrowed" tier:
//
//   - Borrowed samples seed predictions for (replica, method) entries with no
//     or partial local history — HasHistory turns true, so the scheduler
//     skips the §5.4.1 select-all cold-start flood, and the digest's
//     freshness suppresses staleness probes.
//   - Local evidence always wins: each locally recorded sample displaces one
//     borrowed sample (window.TrimOldest), the merged view never exceeds the
//     window size l, and a full local window drops the borrowed tier
//     entirely.
//   - Borrowed samples never advance probation accounting (notePerfLocked is
//     only reachable from RecordPerf), so re-admission still requires real
//     measurements.
//   - Only local windows are exported, so gossip cannot echo or amplify
//     borrowed data through the fleet.
//
// Version metadata stays sound for the response-time model's slots: all
// window versions come from one global monotonic counter, so a merged view
// stamped max(localVersion, borrowedVersion) strictly increases whenever
// either window mutates.

import (
	"time"

	"aqua/internal/window"
	"aqua/internal/wire"
)

// DigestStats counts digest-tier activity for metrics export.
type DigestStats struct {
	// Absorbed is the number of digest entries merged into the borrowed tier.
	Absorbed uint64
	// Stale is the number of digest entries dropped: unknown replica, older
	// than an already borrowed digest, or no room beside local evidence.
	Stale uint64
	// Borrowed is the number of (replica, method) entries currently holding
	// at least one borrowed sample.
	Borrowed int
}

// ExportDigests summarizes every (replica, method) entry that holds locally
// measured samples as a mergeable digest. Borrowed windows are never
// exported. now anchors each digest's AgeNanos (now − last local update), so
// absorbers can order digests by absolute freshness without synchronized
// clocks. The bins are quantized at ExportResolutionNanos.
func (r *Repository) ExportDigests(now time.Time) []wire.WindowDigest {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]wire.WindowDigest, 0, len(r.entries))
	for k, e := range r.entries {
		if e.service.Len() == 0 && e.queue.Len() == 0 {
			continue
		}
		st, ok := r.replicas[k.replica]
		if !ok {
			continue
		}
		d := wire.WindowDigest{
			Replica:     k.replica,
			Method:      k.method,
			QueueLength: st.queueLength,
		}
		d.ServiceBins, d.ServiceCounts = exportHist(e.service)
		d.QueueBins, d.QueueCounts = exportHist(e.queue)
		d.GatewayBins, d.GatewayCounts = exportHist(st.gateway)
		if st.hasUpdate {
			d.AgeNanos = now.Sub(st.lastUpdate).Nanoseconds()
			if d.AgeNanos < 0 {
				d.AgeNanos = 0
			}
		}
		out = append(out, d)
	}
	return out
}

// ExportResolutionNanos returns the bin resolution ExportDigests uses, for the
// caller to report in DigestSync.ResolutionNanos.
func (r *Repository) ExportResolutionNanos() int64 { return resolution.Nanoseconds() }

// exportHist returns a window's bin/count histogram in wire form.
func exportHist(w *window.Window) ([]int64, []int64) {
	bins, counts, ok := w.HistCounts()
	if !ok {
		return nil, nil
	}
	out := make([]int64, len(counts))
	for i, c := range counts {
		out[i] = int64(c)
	}
	return bins, out
}

// AbsorbDigests merges a peer's digest batch into the borrowed tier. now is
// the local receipt time; each digest's absolute freshness is now − AgeNanos.
// It returns how many entries were absorbed and how many were dropped as
// stale. Absorption never touches lifecycle accounting: borrowed samples
// cannot promote a Probation replica.
func (r *Repository) AbsorbDigests(sync wire.DigestSync, now time.Time) (absorbed, stale int) {
	res := time.Duration(sync.ResolutionNanos)
	if res <= 0 {
		res = time.Nanosecond
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range sync.Digests {
		if r.absorbDigestLocked(d, res, now) {
			absorbed++
		} else {
			stale++
		}
	}
	r.digestAbsorbed += uint64(absorbed)
	r.digestStale += uint64(stale)
	return absorbed, stale
}

// absorbDigestLocked merges one digest entry. Caller holds r.mu.
func (r *Repository) absorbDigestLocked(d wire.WindowDigest, res time.Duration, now time.Time) bool {
	st, ok := r.replicas[d.Replica]
	if !ok {
		return false // digests race membership; a removed replica stays removed
	}
	fresh := now.Add(-time.Duration(d.AgeNanos))
	e := r.entryLocked(d.Replica, d.Method)
	if !e.borrowedAt.IsZero() && e.borrowedAt.After(fresh) {
		return false // an already borrowed digest is fresher
	}
	serviceVals := reconstruct(d.ServiceBins, d.ServiceCounts, res)
	queueVals := reconstruct(d.QueueBins, d.QueueCounts, res)
	room := r.windowSize - e.service.Len()
	if qr := r.windowSize - e.queue.Len(); qr < room {
		room = qr
	}
	if room <= 0 || len(serviceVals) == 0 || len(queueVals) == 0 {
		// Local evidence already fills the window (or the digest is empty on
		// one axis), but the digest still proves the replica answered the
		// peer recently — that freshness substitutes for a staleness probe.
		r.noteBorrowedFreshnessLocked(st, fresh)
		return false
	}
	e.borrowedService = rebuildBorrowed(subsample(serviceVals, room), r.windowSize)
	e.borrowedQueue = rebuildBorrowed(subsample(queueVals, room), r.windowSize)
	e.borrowedAt = fresh
	if !st.hasUpdate {
		st.queueLength = d.QueueLength
	}
	// T is a property of the peer's link to the replica, not ours: seed only a
	// point estimate (the median), and only while no local delay exists.
	if st.gateway.Len() == 0 {
		if gVals := reconstruct(d.GatewayBins, d.GatewayCounts, res); len(gVals) > 0 {
			st.borrowedGateway = rebuildBorrowed(gVals[len(gVals)/2:len(gVals)/2+1], r.gatewayHist)
		}
	}
	r.noteBorrowedFreshnessLocked(st, fresh)
	r.touchLocked(st)
	return true
}

// noteBorrowedFreshnessLocked advances the replica's borrowed freshness
// marker, which snapshotReplicaLocked folds into LastUpdate so staleness
// probes are suppressed while peers keep vouching for the replica.
//
// Only Active replicas accept the vouch. A replica on probation after a
// restart may be perfectly *timely* for the peers it answers — state
// transfer runs concurrently with probe traffic — but its state machine can
// still be behind the group, and suppressing this gateway's own staleness
// probes on borrowed evidence would starve the probation warm-up that
// re-admission (and the state-transfer gate) depends on. Quarantined and
// suspected replicas likewise keep their own freshness clocks.
func (r *Repository) noteBorrowedFreshnessLocked(st *replicaState, fresh time.Time) {
	if st.health != Active {
		return
	}
	if fresh.After(st.borrowedUpdate) {
		st.borrowedUpdate = fresh
		r.touchLocked(st)
	}
}

// reconstruct expands a bin/count histogram into ascending pseudo-samples:
// bin × resolution, repeated count times. At matching resolution each value
// re-quantizes to exactly its source bin, which is what makes digest
// absorption equivalent to raw-sample replay (see the equivalence fence).
func reconstruct(bins, counts []int64, res time.Duration) []time.Duration {
	if len(bins) != len(counts) {
		return nil
	}
	var total int64
	for _, c := range counts {
		if c <= 0 {
			return nil
		}
		total += c
		if total > 1<<16 {
			return nil // malformed digest; windows are small
		}
	}
	out := make([]time.Duration, 0, total)
	for i, b := range bins {
		v := time.Duration(b) * res
		for c := int64(0); c < counts[i]; c++ {
			out = append(out, v)
		}
	}
	return out
}

// subsample keeps at most k of vals with an even, centered stride.
func subsample(vals []time.Duration, k int) []time.Duration {
	if len(vals) <= k {
		return vals
	}
	out := make([]time.Duration, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, vals[(2*i+1)*len(vals)/(2*k)])
	}
	return out
}

// rebuildBorrowed returns a fresh borrowed window holding vals: a fresher
// digest supersedes the old window wholesale.
func rebuildBorrowed(vals []time.Duration, capacity int) *window.Window {
	w := window.NewHistogrammed(capacity, resolution)
	for _, v := range vals {
		w.Add(v)
	}
	return w
}

// displaceBorrowedLocked evicts the oldest borrowed sample from each borrowed
// window after a local sample arrived, and drops the tier once empty or once
// local evidence fills the window. Caller holds r.mu.
func (e *entry) displaceBorrowedLocked(windowSize int) {
	if e.borrowedService != nil {
		e.borrowedService.TrimOldest()
		if e.borrowedService.Len() == 0 || e.service.Len()+e.borrowedService.Len() > windowSize {
			e.borrowedService = nil
		}
	}
	if e.borrowedQueue != nil {
		e.borrowedQueue.TrimOldest()
		if e.borrowedQueue.Len() == 0 || e.queue.Len()+e.borrowedQueue.Len() > windowSize {
			e.borrowedQueue = nil
		}
	}
	if e.borrowedService == nil && e.borrowedQueue == nil {
		e.borrowedAt = time.Time{}
	}
}

// DigestStats snapshots digest-tier counters and the current borrowed census.
func (r *Repository) DigestStats() DigestStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := DigestStats{Absorbed: r.digestAbsorbed, Stale: r.digestStale}
	for _, e := range r.entries {
		if e.borrowedService != nil || e.borrowedQueue != nil {
			s.Borrowed++
		}
	}
	return s
}

// BorrowedLen returns how many borrowed service-time samples the
// (replica, method) entry currently holds. Zero for unknown entries.
func (r *Repository) BorrowedLen(id wire.ReplicaID, method string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[methodKey{replica: id, method: method}]
	if !ok || e.borrowedService == nil {
		return 0
	}
	return e.borrowedService.Len()
}

package repository

// Digest-borrowed samples: the repository side of the shared-intelligence
// gateway fabric.
//
// Every gateway's repository learns a replica's windows only from its own
// traffic, so K gateways pay K cold starts per replica. A repository
// therefore exports its *locally measured* S and W window histograms as
// mergeable wire.WindowDigest values, and absorbs peers' digests into its own
// S and W windows as their oldest samples, keeping only a count of how many
// are borrowed:
//
//   - Borrowed samples seed predictions for (replica, method) entries with no
//     or partial local history — HasHistory turns true, so the scheduler
//     skips the §5.4.1 select-all cold-start flood, and the digest's
//     freshness suppresses staleness probes.
//   - Local evidence always wins: a digest fills only the room local samples
//     leave, a fresher digest replaces the borrowed samples and keeps every
//     local one, and each locally recorded sample first evicts one borrowed
//     sample (window.TrimOldest), so a window never exceeds l and is purely
//     local after l reports. T is per-link, so a digest carries none: a
//     peer's link delay is not this gateway's, and the T window holds only
//     local measurements.
//   - Borrowed samples never advance probation accounting (notePerfLocked is
//     only reachable from RecordPerf), so re-admission still requires real
//     measurements.
//   - Only local samples are exported — never a borrowed prefix — so gossip
//     cannot echo or amplify borrowed data through the fleet.

import (
	"slices"
	"time"

	"aqua/internal/dist"
	"aqua/internal/window"
	"aqua/internal/wire"
)

// ExportDigests summarizes every (replica, method) entry that holds locally
// measured S and W samples as a mergeable digest of those samples alone:
// borrowed samples are never exported. now anchors each digest's AgeNanos
// (now − last local update), so absorbers can order digests by absolute
// freshness without synchronized clocks. The bins are quantized at
// ExportResolutionNanos.
func (r *Repository) ExportDigests(now time.Time) []wire.WindowDigest {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]wire.WindowDigest, 0, len(r.entries))
	for k, e := range r.entries {
		if e.service.Len() == e.borrowedS && e.queue.Len() == e.borrowedQ {
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
		d.ServiceBins, d.ServiceCounts = exportHist(e.service, e.borrowedS)
		d.QueueBins, d.QueueCounts = exportHist(e.queue, e.borrowedQ)
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

// exportHist returns the histogram of w's samples after its oldest skip (the
// borrowed ones) in wire form: distinct ascending bins and their counts.
func exportHist(w *window.Window, skip int) (bins, counts []int64) {
	vals := w.Values()[skip:]
	slices.Sort(vals)
	for _, v := range vals {
		b := dist.Quantize(v, resolution)
		if n := len(bins); n > 0 && bins[n-1] == b {
			counts[n-1]++
		} else {
			bins, counts = append(bins, b), append(counts, 1)
		}
	}
	return bins, counts
}

// AbsorbDigests merges a peer's digest batch into the windows as borrowed
// samples. now is the local receipt time; each digest's absolute freshness is
// now − AgeNanos. It returns how many entries were absorbed and how many were
// dropped as stale. Absorption never touches lifecycle accounting: borrowed
// samples cannot promote a Probation replica.
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
	// Borrowed samples fill only the room the local ones leave.
	room := r.windowSize - max(e.service.Len()-e.borrowedS, e.queue.Len()-e.borrowedQ)
	if room <= 0 || len(serviceVals) == 0 || len(queueVals) == 0 {
		// Local evidence already fills the window (or the digest is empty on
		// one axis), but the digest still proves the replica answered the
		// peer recently — that freshness substitutes for a staleness probe.
		r.noteBorrowedFreshnessLocked(st, fresh)
		return false
	}
	e.service, e.borrowedS = r.refill(e.service, e.borrowedS, subsample(serviceVals, room))
	e.queue, e.borrowedQ = r.refill(e.queue, e.borrowedQ, subsample(queueVals, room))
	e.borrowedAt = fresh
	if !st.hasUpdate {
		st.queueLength = d.QueueLength
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

// refill returns a window holding vals, the borrowed samples of a fresher
// digest, followed by w's local samples (those after its oldest borrowed),
// and the new borrowed count.
func (r *Repository) refill(w *window.Window, borrowed int, vals []time.Duration) (*window.Window, int) {
	out := window.NewHistogrammed(r.windowSize, resolution)
	for _, v := range vals {
		out.Add(v)
	}
	for _, v := range w.Values()[borrowed:] {
		out.Add(v)
	}
	return out, len(vals)
}

// BorrowedLen returns how many borrowed service-time samples the
// (replica, method) entry currently holds. Zero for unknown entries.
func (r *Repository) BorrowedLen(id wire.ReplicaID, method string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.entries[methodKey{replica: id, method: method}]; ok {
		return e.borrowedS
	}
	return 0
}

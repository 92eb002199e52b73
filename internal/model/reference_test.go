package model

// The paper's formulation of F_Ri(t) (§5.3.1), kept as the oracle the shipped
// pipeline is pinned to within 1e-12: pmfs rebuilt from the window samples by
// relative frequency, map-based convolution, and T as a point mass shifted in
// when its window holds one sample. It shares no code with model.go — its
// own bounding and alignment included — and reads a snapshot the only way a
// snapshot can be read, by expanding each histogram's bins × counts back into
// samples.

import (
	"fmt"
	"time"

	"aqua/internal/dist"
	"aqua/internal/repository"
	"aqua/internal/window"
)

// reference evaluates snapshots the paper's way. maxSupport and queueAware
// mirror the Predictor fields of the same names so bounded and ablation
// configurations have an oracle too.
type reference struct {
	maxSupport int
	queueAware bool
}

func newReference() reference { return reference{maxSupport: defaultMaxSupport} }

// expand turns a histogram back into the samples it summarizes, ascending:
// bin × resolution, count times. Each re-quantizes to exactly its bin.
func expand(h repository.HistView) []time.Duration {
	var out []time.Duration
	for i, b := range h.Bins {
		for c := 0; c < h.Counts[i]; c++ {
			out = append(out, time.Duration(b)*dist.DefaultResolution)
		}
	}
	return out
}

// histOf is expand's inverse for hand-built snapshots: the view a repository
// window holding exactly these samples would publish, under a fresh version.
func histOf(samples ...time.Duration) repository.HistView {
	if len(samples) == 0 {
		return repository.HistView{}
	}
	w := window.NewHistogrammed(len(samples), dist.DefaultResolution)
	for _, v := range samples {
		w.Add(v)
	}
	bins, counts, _ := w.HistCounts()
	return repository.HistView{Bins: bins, Counts: counts, Version: w.Version()}
}

func (r reference) Probability(snap repository.ReplicaSnapshot, t time.Duration) (float64, error) {
	pmf, err := r.responsePMF(snap)
	if err != nil {
		return 0, err
	}
	return pmf.CDF(t), nil
}

func (r reference) responsePMF(snap repository.ReplicaSnapshot) (*dist.PMF, error) {
	if !snap.HasHistory {
		return nil, fmt.Errorf("reference: replica %q has no performance history", snap.ID)
	}
	s, err := dist.FromSamples(expand(snap.ServiceHist), dist.DefaultResolution)
	if err != nil {
		return nil, err
	}
	w, err := r.waitPMF(snap, s)
	if err != nil {
		return nil, err
	}
	sw, err := r.sum(s, w)
	if err != nil {
		return nil, err
	}
	switch t := expand(snap.GatewayHist); len(t) {
	case 0:
		return sw, nil
	case 1:
		// The paper's T: a point mass at the most recent delay, so the final
		// convolution is a shift.
		return sw.Shift(t[0]), nil
	default:
		tp, err := dist.FromSamples(t, dist.DefaultResolution)
		if err != nil {
			return nil, err
		}
		return r.sum(sw, tp)
	}
}

func (r reference) waitPMF(snap repository.ReplicaSnapshot, service *dist.PMF) (*dist.PMF, error) {
	if !r.queueAware {
		return dist.FromSamples(expand(snap.QueueHist), dist.DefaultResolution)
	}
	w, err := dist.PointMass(0, dist.DefaultResolution)
	if err != nil {
		return nil, err
	}
	for i := 0; i < snap.QueueLength; i++ {
		if w, err = r.bound(w).Convolve(service); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// sum is the support-bounded pmf of the sum of two independent variables.
func (r reference) sum(a, b *dist.PMF) (*dist.PMF, error) {
	a, b = r.bound(a), r.bound(b)
	var err error
	if a.Resolution() < b.Resolution() {
		a, err = a.Rebin(b.Resolution())
	} else if b.Resolution() < a.Resolution() {
		b, err = b.Rebin(a.Resolution())
	}
	if err != nil {
		return nil, err
	}
	ab, err := a.Convolve(b)
	if err != nil {
		return nil, err
	}
	return r.bound(ab), nil
}

func (r reference) bound(pmf *dist.PMF) *dist.PMF {
	for pmf.Support() > r.maxSupport {
		rb, err := pmf.Rebin(pmf.Resolution() * 2)
		if err != nil {
			panic(err) // doubling a positive resolution cannot fail
		}
		pmf = rb
	}
	return pmf
}

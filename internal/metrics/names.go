package metrics

import "strings"

// Metric names are defined centrally so producers (core, gateway, transport)
// and consumers (exports, tests, dashboards) agree on the vocabulary. The
// names follow Prometheus conventions: a subsystem prefix, base units
// (seconds), and a _total suffix on counters.
const (
	// Scheduler (internal/core) — the paper's evaluation series, live.
	SchedSelections       = "aqua_sched_selections_total"        // selection decisions (Figure 4/5 x-axis denominator)
	SchedErrors           = "aqua_sched_errors_total"            // Schedule calls that failed
	SchedReplies          = "aqua_sched_replies_total"           // replies harvested (duplicates included)
	SchedDuplicates       = "aqua_sched_duplicates_total"        // redundant replies discarded after harvesting
	SchedTimingFailures   = "aqua_sched_timing_failures_total"   // tr > t (Figure 4 complement)
	SchedDeadlineExpiries = "aqua_sched_deadline_expiries_total" // failures charged with no reply at all
	SchedViolations       = "aqua_sched_violations_total"        // QoS-violation callbacks issued
	SchedPending          = "aqua_sched_pending"                 // in-flight tracked requests (gauge)
	SchedTargets          = "aqua_sched_targets"                 // |K| per selection (Figure 5 series)
	SchedPredicted        = "aqua_sched_predicted"               // P_K(t) per Equation 1
	SchedOverheadSeconds  = "aqua_sched_overhead_seconds"        // δ per selection (Figure 3 series)

	// Overload control (internal/core): admission shedding, the degraded-mode
	// ladder, and the load-conditioned redundancy budget.
	SchedShed         = "aqua_sched_shed_total"         // requests refused by admission control (ErrOverloaded)
	SchedDegradations = "aqua_sched_degradations_total" // degraded-mode transitions (any direction)
	SchedMode         = "aqua_sched_mode"               // current mode gauge: 0 normal, 1 budgeted, 2 shedding
	SchedDecisions    = "aqua_sched_decisions_total"    // selections by guarantee label (eq3, line15, capped, probe, none)
	SchedBackpressure = "aqua_sched_backpressure_total" // transport backpressure signals absorbed
	SchedBudget       = "aqua_sched_budget"             // redundancy budget per budgeted selection (histogram)

	// Replica lifecycle (internal/core + internal/repository): the §5.4
	// detect→eject→restart→re-admit loop.
	SchedSuspected      = "aqua_sched_suspected_total"      // Active → Suspected transitions
	SchedQuarantined    = "aqua_sched_quarantined_total"    // → Quarantined transitions
	SchedReinstated     = "aqua_sched_reinstated_total"     // Suspected → Active recoveries
	SchedQuarantinedNow = "aqua_sched_quarantined_replicas" // currently quarantined members (gauge)

	// Per-replica response times observed by the scheduler (t4 − t0 per
	// harvested reply). Labelled by replica.
	ReplicaResponseSeconds = "aqua_replica_response_seconds"

	// Server replica (internal/server): first-response-wins cancellation and
	// the duplicate-frame dedup window.
	ServerCancelPurged    = "aqua_server_cancel_purged_total"    // cancels that removed a queued request
	ServerCancelAborted   = "aqua_server_cancel_aborted_total"   // cancels that aborted mid-service work
	ServerCancelUnmatched = "aqua_server_cancel_unmatched_total" // cancels for already-served/unknown requests
	ServerDupFrames       = "aqua_server_dup_frames_total"       // duplicate request frames dropped by the dedup window

	// Gateway (internal/gateway).
	GatewayCalls       = "aqua_gateway_calls_total"
	GatewayCallErrors  = "aqua_gateway_call_errors_total"
	GatewayShedRetries = "aqua_gateway_shed_retries_total" // bounded retries of admission-shed calls
	GatewayCancels     = "aqua_gateway_cancels_sent_total" // first-response-wins cancels fanned to losing replicas

	// Active prober (internal/gateway/prober.go).
	ProbeSent        = "aqua_probe_sent_total"
	ProbeAnswered    = "aqua_probe_answered_total"
	ProbeLost        = "aqua_probe_lost_total" // re-probed after an unanswered probe aged out
	ProbeOutstanding = "aqua_probe_outstanding"

	// Shared-intelligence digest fabric (internal/gateway/gossip.go +
	// internal/repository/digest.go): window digests gossiped between
	// gateways and absorbed as borrowed samples.
	DigestSyncsSent     = "aqua_digest_syncs_sent_total"       // DigestSync batches pushed to peers
	DigestSyncsReceived = "aqua_digest_syncs_received_total"   // DigestSync batches accepted (after dedup)
	DigestAbsorbed      = "aqua_digest_entries_absorbed_total" // digest entries absorbed as borrowed samples
	DigestStale         = "aqua_digest_entries_stale_total"    // digest entries dropped (stale, unknown, no room)

	// MultiGateway demultiplexer: payloads no loaded handler understands
	// (mixed-version fleets, unknown gossip types).
	GatewayDemuxDropped = "aqua_gateway_demux_dropped_total"

	// Transport (internal/transport). Networks report to the Default
	// registry unless constructed with an explicit one (transport.WithMetrics,
	// NewTCPWithMetrics, or a cluster built with aqua.WithMetrics).
	TransportFramesSent        = "aqua_transport_frames_sent_total"
	TransportFramesReceived    = "aqua_transport_frames_received_total"
	TransportBackpressureDrops = "aqua_transport_backpressure_drops_total"
	TransportRecvDrops         = "aqua_transport_recv_drops_total" // receiver queue overflow
	TransportDials             = "aqua_transport_dials_total"
	TransportDialFailures      = "aqua_transport_dial_failures_total"
	TransportEncodes           = "aqua_transport_encodes_total" // frame serializations (multicast encodes once)
	TransportQueueDepth        = "aqua_transport_queue_depth"   // per-destination gauge
)

// Standard bucket sets.
var (
	// LatencyBuckets covers LAN round trips through overloaded-replica
	// tails, in seconds.
	LatencyBuckets = []float64{
		0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.075, 0.1, 0.15, 0.25, 0.5, 1, 2.5,
	}
	// OverheadBuckets covers the selection overhead δ, in seconds: a
	// decision over memoized tables sits in single-digit microseconds, one
	// that rebuilds long windows' distributions in milliseconds.
	OverheadBuckets = []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4,
		2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2,
	}
	// TargetBuckets counts |K| (whole replicas; the paper sweeps 2..8).
	TargetBuckets = []float64{1, 2, 3, 4, 5, 6, 7, 8}
	// ProbabilityBuckets resolves the high end of P_K(t), where selection
	// decisions are made.
	ProbabilityBuckets = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
)

// Label appends one key="value" label to a metric name, producing
// `name{key="value"}` (or merging into an existing label set). Quotes and
// backslashes in the value are escaped per the Prometheus text format.
func Label(name, key, value string) string {
	var b strings.Builder
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		b.WriteString(name[:len(name)-1])
		b.WriteString(",")
	} else {
		b.WriteString(name)
		b.WriteString("{")
	}
	b.WriteString(key)
	b.WriteString(`="`)
	esc.WriteString(&b, value)
	b.WriteString(`"}`)
	return b.String()
}

// splitName separates a metric name into its base and label portion:
// `m{a="b"}` → (`m`, `a="b"`). Names without labels return an empty label
// string.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

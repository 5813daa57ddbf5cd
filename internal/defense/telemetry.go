package defense

import "floc/internal/telemetry"

// Optional registry wiring for the baseline disciplines, so experiment
// runs expose the same observability surface regardless of which defense
// guards the link. All emission is guarded by a nil check, mirroring the
// core router's seam.

type redMetrics struct {
	drops    *telemetry.Counter
	avgQueue *telemetry.Gauge
}

// SetTelemetry attaches registry counters to the RED queue (nil detaches).
func (r *RED) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		r.met = nil
		return
	}
	r.met = &redMetrics{
		drops:    reg.Counter("floc_red_drops_total", "packets dropped by RED (early + overflow)", "packets"),
		avgQueue: reg.Gauge("floc_red_avg_queue", "RED average queue estimate", "packets"),
	}
}

type pushbackMetrics struct {
	limiterDrops *telemetry.Counter
	activations  *telemetry.Counter
	limitedAggs  *telemetry.Gauge
}

// SetTelemetry attaches registry counters to the Pushback discipline and
// its inner RED queue (nil detaches).
func (p *Pushback) SetTelemetry(reg *telemetry.Registry) {
	p.red.SetTelemetry(reg)
	if reg == nil {
		p.met = nil
		return
	}
	p.met = &pushbackMetrics{
		limiterDrops: reg.Counter("floc_pushback_limiter_drops_total", "packets shed by aggregate rate limiters", "packets"),
		activations:  reg.Counter("floc_pushback_activations_total", "ACC limit-computation runs", ""),
		limitedAggs:  reg.Gauge("floc_pushback_limited_aggregates", "aggregates currently rate-limited", ""),
	}
}

package core

import "testing"

// BenchmarkControlRun times one control-loop execution on a router
// holding 2048 paths x 16 flows with telemetry attached as in flocd.
// Between runs (untimed) every flow sends a packet, then one flow in
// twenty is aged past the timeout, so each timed run expires ~5 % of the
// population in place and the refill re-creates it.
func BenchmarkControlRun(b *testing.B) {
	const nPaths, flowsPer = 2048, 16
	fx := newControlFixture(b, nPaths, flowsPer, nil)
	r := fx.r
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fx.now += r.cfg.ControlInterval
		for k := range fx.pkts {
			fx.send(k) // lastControl is ahead of now: no control run in here
		}
		n := i
		r.origins.each(func(ps *pathState) {
			flows := ps.flows.all()
			for j := range flows {
				if n++; n%20 == 0 {
					flows[j].lastSeen = fx.now - 2*r.cfg.FlowTimeout
				}
			}
		})
		b.StartTimer()
		r.runControl(fx.now + r.cfg.ControlInterval)
	}
	b.StopTimer()
	if got := r.tel.Registry.CounterValue("floc_router_expired_flows_total"); got == 0 {
		b.Fatal("no flow expired: the benchmark does not exercise in-place expiry")
	}
}

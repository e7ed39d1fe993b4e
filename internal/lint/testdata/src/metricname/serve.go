// Package serve is golden testdata for the metricname analyzer,
// type-checked under the serving tier's import path so the serve_
// prefix rule applies: metric name literals must be lower_snake, carry
// the package's subsystem prefix, and be registered once.
package serve

import "transched/internal/obs"

func register(reg *obs.Registry) {
	_ = reg.Counter("serve_requests_total")
	_ = reg.Gauge("route_backends")             // want `subsystem prefix`
	_ = reg.Counter("model_tasks_filled_total") // want `subsystem prefix`
	_ = reg.Histogram("serve_request_seconds", obs.DefaultBuckets())
	_ = reg.Counter("Serve_Bad_Case")       // want `must match`
	_ = reg.Counter("serve_9lives")         // still matches the charset: prefix rule is separate
	_ = reg.Counter("rts_wrong_subsystem")  // want `subsystem prefix`
	_ = reg.Counter("serve_requests_total") // want `already registered`
}

const depthName = "serve_queue_depth"

// constants participate: the checker sees the constant's value.
func constants(reg *obs.Registry) {
	_ = reg.Gauge(depthName)
	_ = reg.Gauge("serve_" + "queue_depth") // want `already registered`
}

// dynamic names (the per-stage histograms obs.Stage.MetricName builds
// from the stage) are outside the literal contract.
func dynamic(reg *obs.Registry, stage string) {
	_ = reg.Histogram("serve_stage_"+stage, obs.DefaultBuckets())
}

func suppressed(reg *obs.Registry) {
	_ = reg.Counter("unprefixed_total") //transched:allow-metricname testdata: exercising suppression
}

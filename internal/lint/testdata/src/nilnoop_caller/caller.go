// Package caller is golden testdata for the caller half of nilnoop:
// wrapping plain handle-method calls in `if h != nil` second-guesses
// the no-op contract, but guards that keep argument side effects off
// the untraced path are the contract working and stay.
package caller

import (
	"time"

	"transched/internal/obs"
)

func wrapped(rt *obs.ReqTrace) {
	if rt != nil { // want `no-ops by contract`
		rt.SetStatus(200)
	}
}

func wrappedReversed(rt *obs.ReqTrace, d string) {
	if nil != rt { // want `no-ops by contract`
		rt.SetDigest(d)
		rt.SetStatus(200)
	}
}

func wrappedField(h struct{ rt *obs.ReqTrace }) {
	if h.rt != nil { // want `no-ops by contract`
		h.rt.Finish()
	}
}

// argEffects keeps the clock read off the untraced path: exempt.
func argEffects(rt *obs.ReqTrace, start time.Time) {
	if rt != nil {
		rt.SetStatus(int(time.Since(start)))
	}
}

// mixedBody does real work under the guard: nilness is logic here.
func mixedBody(rt *obs.ReqTrace) int {
	n := 0
	if rt != nil {
		rt.SetStatus(200)
		n++
	}
	return n
}

// withElse branches both ways: not a wrap.
func withElse(rt *obs.ReqTrace, fallback func()) {
	if rt != nil {
		rt.SetStatus(200)
	} else {
		fallback()
	}
}

// construction returns inside the guard: nilness decides control flow.
func construction(tr *obs.ReqTracer, sc obs.SpanContext) *obs.ReqTrace {
	if tr != nil {
		return tr.Start("solve", sc)
	}
	return nil
}

func suppressed(rt *obs.ReqTrace) {
	//transched:allow-nilnoop testdata: exercising suppression
	if rt != nil {
		rt.SetStatus(200)
	}
}

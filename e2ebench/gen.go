package main

import (
	"encoding/json"

	"pfg/internal/tsgen"
)

// streamNoise is the noise level of the live and ingest series. The series
// are batch's generator (tsgen.GenerateClassed, cutK classes) read one time
// point per tick, so as the window slides over the class waveforms the
// correlations drift and the incremental drift gate fires. Measured per
// 2282 pushes at n=512, W=4096, seeds 101-108: noise 0.5 gives 108-148
// drift fulls (93-95% hits, about the 94/6 hit/full mix the workload is
// meant to have); batch's noise 2.0 gives 31-60. tsgen.GenerateStocks, a
// stationary factor model, fired the drift gate 0 times in 600 pushes of
// seed 1, which would leave only the fixed-period staleness and boundary
// fulls.
const streamNoise = 0.5

// streamTicks returns count ticks of sessionN series with their class
// labels. Tick t holds every series' value at time point t.
func streamTicks(count int, seed int64) (ticks [][]float64, labels []int) {
	ds := tsgen.GenerateClassed("e2ebench-stream", sessionN, count, cutK, streamNoise, seed)
	ticks = make([][]float64, count)
	for t := range ticks {
		ticks[t] = make([]float64, sessionN)
		for i, s := range ds.Series {
			ticks[t][i] = s[t]
		}
	}
	return ticks, ds.Labels
}

// pushBody encodes the push request body the server expects.
func pushBody(ticks [][]float64) []byte {
	var b []byte
	var err error
	if len(ticks) == 1 {
		b, err = json.Marshal(map[string][]float64{"sample": ticks[0]})
	} else {
		b, err = json.Marshal(map[string][][]float64{"samples": ticks})
	}
	if err != nil {
		panic(err) // finite floats always encode
	}
	return b
}

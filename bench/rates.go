package main

// Open-loop rates, requests per second. Each was set once, on the commit
// that introduced the benchmark, to 40% of that workload's measured
// closed-loop validate_rps on the reference host (2 cores), rounded to
// two significant figures. They are never adapted at run time: a later
// commit is measured at the same offered load as this one. Every result
// file records the rates it ran at.
var openRate = map[string]float64{
	wlEdgeHot:   4400,
	wlEdgeCold:  2500,
	wlDirectOW2: 9800,
	wlChurn:     4400, // churn_revoke reads the edge_hot mix
}

// churnReadRate is the one-worker open-loop read rate that runs beside
// the session scripts: half the two-worker rate of the same read shape.
func churnReadRate(workload string) float64 { return openRate[workload] / 2 }

// sessionRate is the open-loop session-script rate, sessions per second.
// One session is ten or more sequential requests, three of which wait
// for a journal fsync.
const sessionRate = 74

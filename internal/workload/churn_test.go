package workload

import "testing"

func TestChurnSmoke(t *testing.T) {
	cfg := ChurnConfig{
		Seed:            7,
		Principals:      400,
		Ops:             2000,
		HotFrac:         0.1,
		RevokeEvery:     100,
		ApptWaves:       2,
		ApptsPerWave:    10,
		CascadeCerts:    300,
		CacheMaxEntries: 128,
	}
	res, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.ResidentCRs < int64(2*cfg.Principals) {
		t.Errorf("resident CRs = %d, want >= %d", res.ResidentCRs, 2*cfg.Principals)
	}
	if res.BytesPerPrincipal <= 0 {
		t.Errorf("bytes/principal = %.0f, want > 0", res.BytesPerPrincipal)
	}
	if res.P99Ns <= 0 || res.P50Ns > res.P99Ns {
		t.Errorf("latency percentiles p50=%d p99=%d", res.P50Ns, res.P99Ns)
	}
	if res.ApptIssued != cfg.ApptWaves*cfg.ApptsPerWave || res.ApptExpired != res.ApptIssued {
		t.Errorf("appts issued=%d expired=%d, want %d of each",
			res.ApptIssued, res.ApptExpired, cfg.ApptWaves*cfg.ApptsPerWave)
	}
	if !res.CascadeOK {
		t.Errorf("cascade did not fully collapse")
	}
	if res.CachedValidations > int64(cfg.CacheMaxEntries) {
		t.Errorf("cached validations %d exceed bound %d", res.CachedValidations, cfg.CacheMaxEntries)
	}
}

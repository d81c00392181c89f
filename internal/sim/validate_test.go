package sim

import (
	"math"
	"testing"

	"repro/internal/queueing"
	"repro/internal/rng"
)

// simulateMMC runs an M/M/c station on the kernel: Poisson arrivals with
// mean interarrival ia, exponential service with mean sv, c servers. It
// returns the observed mean wait in queue and mean time in system.
func simulateMMC(seed uint64, ia, sv float64, c, customers int) (wq, w float64) {
	s := New()
	srv := NewResource(s, "server", c)
	arrivals := rng.NewStream(seed, 0)
	services := rng.NewStream(seed, 1)

	var totalWq, totalW float64
	done := 0
	var arrive func()
	arrive = func() {
		if done+srv.QueueLen()+srv.InUse() < customers {
			s.Schedule(arrivals.Exp(ia), arrive)
		}
		t0 := s.Now()
		request(srv, func() {
			totalWq += s.Now() - t0
			s.Schedule(services.Exp(sv), func() {
				totalW += s.Now() - t0
				done++
				srv.Release()
			})
		})
	}
	s.Schedule(arrivals.Exp(ia), arrive)
	s.Run()
	return totalWq / float64(done), totalW / float64(done)
}

// The kernel must reproduce M/M/1 theory — the same style of validation the
// authors ran for DESP-C++ against QNAP2.
func TestKernelReproducesMM1(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation skipped in -short mode")
	}
	const customers = 200000
	lambda, mu := 0.5, 1.0
	theory := queueing.MM1{Lambda: lambda, Mu: mu}
	wq, w := simulateMMC(11, 1/lambda, 1/mu, 1, customers)
	// Queue waits are strongly autocorrelated, so the effective sample size
	// is far below the customer count; 4% is a sound bound for this length.
	tol := queueing.Tolerance(customers, 0.04)
	if rel := math.Abs(wq-theory.Wq()) / theory.Wq(); rel > tol {
		t.Errorf("M/M/1 Wq: sim %v theory %v (rel err %.3f > %.3f)", wq, theory.Wq(), rel, tol)
	}
	if rel := math.Abs(w-theory.W()) / theory.W(); rel > tol {
		t.Errorf("M/M/1 W: sim %v theory %v (rel err %.3f > %.3f)", w, theory.W(), rel, tol)
	}
}

func TestKernelReproducesMM1HighLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation skipped in -short mode")
	}
	const customers = 200000
	lambda, mu := 0.8, 1.0
	theory := queueing.MM1{Lambda: lambda, Mu: mu}
	wq, _ := simulateMMC(13, 1/lambda, 1/mu, 1, customers)
	// High load mixes slowly; allow a looser tolerance.
	if rel := math.Abs(wq-theory.Wq()) / theory.Wq(); rel > 0.05 {
		t.Errorf("M/M/1 ρ=0.8 Wq: sim %v theory %v (rel err %.3f)", wq, theory.Wq(), rel)
	}
}

func TestKernelReproducesMMC(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation skipped in -short mode")
	}
	const customers = 60000
	lambda, mu, c := 2.0, 1.0, 3
	theory := queueing.MMC{Lambda: lambda, Mu: mu, Servers: c}
	wq, w := simulateMMC(17, 1/lambda, 1/mu, c, customers)
	if rel := math.Abs(wq-theory.Wq()) / theory.Wq(); rel > 0.06 {
		t.Errorf("M/M/3 Wq: sim %v theory %v (rel err %.3f)", wq, theory.Wq(), rel)
	}
	if rel := math.Abs(w-theory.W()) / theory.W(); rel > 0.03 {
		t.Errorf("M/M/3 W: sim %v theory %v (rel err %.3f)", w, theory.W(), rel)
	}
}

// Deterministic service (M/D/1): mean queue wait should match ρs/(2(1−ρ)).
func TestKernelReproducesMD1(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation skipped in -short mode")
	}
	s := New()
	srv := NewResource(s, "disk", 1)
	arrivals := rng.NewStream(23, 0)
	const customers = 60000
	const ia, service = 2.0, 1.0 // ρ = 0.5
	var totalWq float64
	done := 0
	var arrive func()
	arrive = func() {
		if done+srv.QueueLen()+srv.InUse() < customers {
			s.Schedule(arrivals.Exp(ia), arrive)
		}
		t0 := s.Now()
		request(srv, func() {
			totalWq += s.Now() - t0
			s.Schedule(service, func() {
				done++
				srv.Release()
			})
		})
	}
	s.Schedule(arrivals.Exp(ia), arrive)
	s.Run()
	wq := totalWq / float64(done)
	want := queueing.MD1Wq(1/ia, service)
	if rel := math.Abs(wq-want) / want; rel > 0.05 {
		t.Errorf("M/D/1 Wq: sim %v theory %v (rel err %.3f)", wq, want, rel)
	}
}

// Utilization of the simulated station must match ρ.
func TestKernelUtilizationMatchesRho(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation skipped in -short mode")
	}
	s := New()
	srv := NewResource(s, "server", 1)
	arrivals := rng.NewStream(29, 0)
	services := rng.NewStream(29, 1)
	const customers = 50000
	done := 0
	var arrive func()
	arrive = func() {
		if done+srv.QueueLen()+srv.InUse() < customers {
			s.Schedule(arrivals.Exp(1/0.6), arrive)
		}
		request(srv, func() {
			s.Schedule(services.Exp(1), func() {
				done++
				srv.Release()
			})
		})
	}
	s.Schedule(arrivals.Exp(1/0.6), arrive)
	s.Run()
	if u := srv.Utilization(); math.Abs(u-0.6) > 0.02 {
		t.Errorf("utilization %v, want ≈ 0.6", u)
	}
}

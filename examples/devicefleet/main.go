// Devicefleet: the full service deployment in one process — an ETA² server
// behind its HTTP API, a coordinator driving the daily loop over the wire,
// and a fleet of concurrent "mobile devices" submitting their readings
// through the same JSON endpoints a real deployment would use.
//
// Run with: go run ./examples/devicefleet
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"eta2"
	"eta2/internal/httpapi"
)

const (
	nDevices = 12
	nDays    = 3
	perDay   = 10
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Server side: an ETA² server behind the HTTP API. ---
	server, err := eta2.NewServer(eta2.WithAlpha(0.6))
	if err != nil {
		return err
	}
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpServer := &http.Server{Handler: httpapi.New(server), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := httpServer.Serve(listener); err != nil && err != http.ErrServerClosed {
			log.Println("serve:", err)
		}
	}()
	defer func() {
		// The clients' idle keep-alive connections would otherwise hold
		// Shutdown until its deadline.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = httpServer.Shutdown(ctx)
	}()
	baseURL := "http://" + listener.Addr().String()
	fmt.Println("server listening on", baseURL)

	// --- Device fleet: each device has a hidden skill level. ---
	ctx := context.Background()
	coordinator := httpapi.NewClient(baseURL, nil)
	skill := make([]float64, nDevices)
	users := make([]httpapi.UserJSON, nDevices)
	rng := rand.New(rand.NewSource(42))
	for i := range users {
		skill[i] = 0.3 + 2.7*rng.Float64()
		users[i] = httpapi.UserJSON{ID: i, Capacity: 8}
	}
	if err := coordinator.AddUsers(ctx, users); err != nil {
		return err
	}

	truths := map[int]float64{}
	const sensingDomain = 1
	for day := 0; day < nDays; day++ {
		// Coordinator creates the day's tasks.
		specs := make([]httpapi.TaskSpecJSON, perDay)
		for j := range specs {
			specs[j] = httpapi.TaskSpecJSON{
				Description: fmt.Sprintf("air quality reading, site %d", day*perDay+j),
				ProcTime:    0.8,
				DomainHint:  sensingDomain,
			}
		}
		ids, err := coordinator.CreateTasks(ctx, specs)
		if err != nil {
			return err
		}
		for _, id := range ids {
			truths[id] = 20 + 60*rng.Float64()
		}

		// Expertise-aware allocation over the wire.
		pairs, err := coordinator.AllocateMaxQuality(ctx)
		if err != nil {
			return err
		}

		// Dispatch assignments to the devices; every device submits its
		// readings concurrently through its own HTTP client.
		assignments := make([][]httpapi.PairJSON, nDevices)
		for _, p := range pairs {
			assignments[p.User] = append(assignments[p.User], p)
		}
		var wg sync.WaitGroup
		errCh := make(chan error, nDevices)
		for dev := 0; dev < nDevices; dev++ {
			wg.Add(1)
			go func(dev int) {
				defer wg.Done()
				device := httpapi.NewClient(baseURL, nil)
				local := rand.New(rand.NewSource(int64(day*1000 + dev)))
				var obs []httpapi.ObservationJSON
				for _, p := range assignments[dev] {
					noise := local.NormFloat64() * 6 / skill[dev]
					obs = append(obs, httpapi.ObservationJSON{
						Task:  p.Task,
						User:  dev,
						Value: truths[p.Task] + noise,
					})
				}
				if len(obs) == 0 {
					return
				}
				if err := device.SubmitObservations(ctx, obs); err != nil {
					errCh <- err
				}
			}(dev)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}

		// Coordinator closes the step: truth analysis + expertise update.
		report, err := coordinator.CloseStep(ctx)
		if err != nil {
			return err
		}
		var absErr float64
		for _, est := range report.Estimates {
			d := est.Value - truths[est.Task]
			if d < 0 {
				d = -d
			}
			absErr += d
		}
		fmt.Printf("day %d: %d tasks, %d assignments, mean error %.2f (MLE: %d iterations)\n",
			day, len(report.Estimates), len(pairs), absErr/float64(len(report.Estimates)), report.MLEIterations)
	}

	// The coordinator can inspect what the server learned about each
	// device — compare against the hidden skills.
	fmt.Println("\nlearned expertise vs hidden device skill:")
	for dev := 0; dev < 4; dev++ {
		learned, err := coordinator.Expertise(ctx, dev, sensingDomain)
		if err != nil {
			return err
		}
		fmt.Printf("  device %2d: learned %.2f  (hidden %.2f)\n", dev, learned, skill[dev])
	}
	return nil
}

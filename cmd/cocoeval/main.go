// Command cocoeval regenerates the paper's tables and figures on the
// simulated testbeds. Each experiment prints a text rendering and writes a
// CSV next to it; see EXPERIMENTS.md for the experiment index.
//
// Usage:
//
//	cocoeval [-exp all|table2|fig1|fig2|fig4|fig5|fig6|fig7|table4|ablation|sensitivity]
//	         [-testbed I|II|both] [-full] [-out DIR] [-deploy DIR] [-parallel N]
//
// By default the reduced ("fast") problem sets run; -full selects the
// paper's complete validation sets (substantially slower).
//
// -parallel N fans the campaign's independent simulations across N worker
// goroutines (0 = all cores, 1 = the legacy serial path). Every noise
// seed derives from the measurement cell's key, never from execution
// order, so the experiment output on stdout and the CSV files are
// byte-identical at any worker count; the run summary (wall-clock, worker
// utilization, result-cache and plan statistics) goes to stderr.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cocopelia/internal/eval"
	"cocopelia/internal/machine"
	"cocopelia/internal/microbench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cocoeval: ")
	exp := flag.String("exp", "all", "experiment: all, table2, fig1, fig2, fig4, fig5, fig6, fig7, table4, ablation, sensitivity")
	testbed := flag.String("testbed", "both", "testbed: I, II or both")
	full := flag.Bool("full", false, "run the paper's full validation sets (slow)")
	out := flag.String("out", "results", "output directory for CSV files")
	deployDir := flag.String("deploy", "", "directory with deploy-*.json files to reuse (default: run deployment)")
	par := flag.Int("parallel", 0, "campaign workers: 0 = all cores, 1 = serial")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	var tbs []*machine.Testbed
	switch strings.ToUpper(*testbed) {
	case "I":
		tbs = []*machine.Testbed{machine.TestbedI()}
	case "II":
		tbs = []*machine.Testbed{machine.TestbedII()}
	case "BOTH":
		tbs = machine.Testbeds()
	default:
		log.Fatalf("unknown testbed %q", *testbed)
	}

	for _, tb := range tbs {
		start := time.Now()
		c, dep := campaignFor(tb, *deployDir, !*full, *par)
		slug := strings.ReplaceAll(strings.ToLower(tb.Name), " ", "-")
		run := func(name string, fn func() error) {
			if *exp != "all" && *exp != name {
				return
			}
			fmt.Printf("=== %s on %s ===\n", name, tb.Name)
			if err := fn(); err != nil {
				log.Fatalf("%s on %s: %v", name, tb.Name, err)
			}
			fmt.Println()
		}

		run("table2", func() error {
			fmt.Print(microbench.TableII(dep))
			return nil
		})

		run("fig1", func() error {
			rows, err := c.Fig1()
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderFig1(rows))
			h, cells := eval.Fig1CSV(rows)
			return eval.WriteCSV(filepath.Join(*out, "fig1-"+slug+".csv"), h, cells)
		})

		run("fig2", func() error {
			gantt, phases, err := c.Fig2(8192, 1024, 100)
			if err != nil {
				return err
			}
			fmt.Print(gantt)
			fmt.Println("dominant engine per phase window:")
			for _, ph := range phases {
				fmt.Printf("  [%.3fs..%.3fs] %s\n", ph.Start, ph.End, ph.Dominant)
			}
			return nil
		})

		run("fig4", func() error {
			samples, err := c.Fig4()
			if err != nil {
				return err
			}
			// Level-2 extension (the paper models level-2 with Eq. 4 but
			// does not evaluate it).
			gemv, err := c.Fig4Gemv()
			if err != nil {
				return err
			}
			samples = append(samples, gemv...)
			fmt.Print(eval.RenderErrSummary("Fig. 4 (no-reuse systems): BTS vs CSO", samples))
			h, cells := eval.ErrCSV(samples)
			return eval.WriteCSV(filepath.Join(*out, "fig4-"+slug+".csv"), h, cells)
		})

		run("fig5", func() error {
			samples, err := c.Fig5()
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderErrSummary("Fig. 5 (CoCoPeLia with reuse): DR vs CSO", samples))
			h, cells := eval.ErrCSV(samples)
			return eval.WriteCSV(filepath.Join(*out, "fig5-"+slug+".csv"), h, cells)
		})

		run("fig6", func() error {
			// The paper's Fig. 6 uses Testbed II; we render it per testbed.
			for _, routine := range []string{"dgemm", "sgemm"} {
				rows, err := c.Fig6(routine)
				if err != nil {
					return err
				}
				fmt.Print(eval.RenderFig6(routine, rows))
				h, cells := eval.Fig6CSV(rows)
				if err := eval.WriteCSV(filepath.Join(*out, "fig6-"+routine+"-"+slug+".csv"), h, cells); err != nil {
					return err
				}
			}
			return nil
		})

		var gemmRows = map[string][]eval.Fig7Row{}
		run("fig7", func() error {
			for _, routine := range []string{"dgemm", "sgemm"} {
				rows, err := c.Fig7Gemm(routine)
				if err != nil {
					return err
				}
				gemmRows[routine] = rows
				fmt.Print(eval.RenderFig7(tb.Name+" "+routine, rows,
					[]eval.Lib{eval.LibCoCoPeLia, eval.LibCuBLASXt, eval.LibBLASX}))
				h, cells := eval.Fig7CSV(rows, []eval.Lib{eval.LibCoCoPeLia, eval.LibCuBLASXt, eval.LibBLASX})
				if err := eval.WriteCSV(filepath.Join(*out, "fig7-"+routine+"-"+slug+".csv"), h, cells); err != nil {
					return err
				}
			}
			rows, err := c.Fig7Daxpy()
			if err != nil {
				return err
			}
			gemmRows["daxpy"] = rows
			fmt.Print(eval.RenderFig7(tb.Name+" daxpy", rows,
				[]eval.Lib{eval.LibCoCoPeLia, eval.LibUnified}))
			h, cells := eval.Fig7CSV(rows, []eval.Lib{eval.LibCoCoPeLia, eval.LibUnified})
			return eval.WriteCSV(filepath.Join(*out, "fig7-daxpy-"+slug+".csv"), h, cells)
		})

		run("ablation", func() error {
			fmt.Print(c.AblationSlowdownFit())
			fmt.Println()
			rows, err := c.AblationReuse("dgemm")
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderAblationReuse("dgemm", rows))
			fmt.Println()
			crows, err := c.AblationContention("dgemm")
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderAblationContention("dgemm", crows))
			fmt.Println()
			samples, err := c.AblationModelVariants("dgemm")
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderErrSummary("ablation: model variants vs measured CoCoPeLia", samples))
			h, cells := eval.ErrCSV(samples)
			return eval.WriteCSV(filepath.Join(*out, "ablation-models-"+slug+".csv"), h, cells)
		})

		run("sensitivity", func() error {
			rows, err := c.Sensitivity(8192, []float64{0.125, 0.25, 0.5, 1, 2, 4, 8, 16})
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderSensitivity(tb.Name, 8192, rows))
			return nil
		})

		run("table4", func() error {
			var all []eval.Table4Row
			for _, routine := range []string{"dgemm", "sgemm"} {
				rows := gemmRows[routine]
				if rows == nil {
					var err error
					rows, err = c.Fig7Gemm(routine)
					if err != nil {
						return err
					}
				}
				all = append(all, eval.Table4(tb.Name, routine, rows)...)
			}
			drows := gemmRows["daxpy"]
			if drows == nil {
				var err error
				drows, err = c.Fig7Daxpy()
				if err != nil {
					return err
				}
			}
			all = append(all, eval.Table4(tb.Name, "daxpy", drows)...)
			fmt.Print(eval.RenderTable4(all))
			return nil
		})

		// Run summary. Timing-dependent, so it goes to stderr (log): the
		// experiment output on stdout stays byte-identical at any -parallel.
		elapsed := time.Since(start)
		hits, misses, waits := c.Runner.CacheStats()
		replays, builds, _ := c.Runner.PlanCacheStats()
		if c.Pool != nil {
			st := c.Pool.Stats()
			log.Printf("%s: %.2fs wall, %d workers, %d jobs, %.0f%% utilization, cache %d hits / %d misses / %d waits, plans %d built / %d replayed",
				tb.Name, elapsed.Seconds(), c.Pool.Workers(), st.Jobs,
				100*c.Pool.Utilization(elapsed), hits, misses, waits, builds, replays)
		} else {
			log.Printf("%s: %.2fs wall, serial, cache %d hits / %d misses / %d waits, plans %d built / %d replayed",
				tb.Name, elapsed.Seconds(), hits, misses, waits, builds, replays)
		}
	}
}

// campaignFor builds the campaign, reusing a saved deployment when one is
// available, and applies the -parallel worker count to both the campaign
// pool and the deployment micro-benchmarks.
func campaignFor(tb *machine.Testbed, deployDir string, fast bool, workers int) (*eval.Campaign, *microbench.Deployment) {
	if deployDir != "" {
		slug := strings.ReplaceAll(strings.ToLower(tb.Name), " ", "-")
		path := filepath.Join(deployDir, "deploy-"+slug+".json")
		if dep, err := microbench.Load(path); err == nil {
			// Diagnostics go to stderr: stdout carries only experiment
			// output, so it stays byte-identical whether or not a saved
			// deployment exists.
			log.Printf("reusing deployment %s", path)
			c := eval.NewCampaignWithDeployment(tb, dep, fast)
			c.SetParallel(workers)
			return c, dep
		}
		log.Printf("no deployment at %s; running micro-benchmarks", path)
	}
	cfg := microbench.DefaultConfig()
	cfg.Workers = workers
	dep := microbench.Run(tb, cfg)
	c := eval.NewCampaignWithDeployment(tb, dep, fast)
	c.SetParallel(workers)
	return c, dep
}

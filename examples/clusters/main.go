// Clusters sweeps the clustered dependence-based design space on one
// workload: cluster count and inter-cluster bypass latency, reporting IPC
// and inter-cluster bypass frequency for each point (the Section 5.4–5.6
// design space beyond the paper's 2×4-way point).
//
// Run with: go run ./examples/clusters [workload]
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/core"
)

func main() {
	workload := "perl"
	if len(os.Args) > 1 {
		workload = os.Args[1]
	}

	fmt.Printf("Clustered dependence-based design space on %q\n", workload)
	fmt.Printf("(8 total FUs and 64 total FIFO entries in every organization)\n\n")
	fmt.Printf("%-10s %-18s %8s %8s %12s\n", "clusters", "bypass latency", "IPC", "vs base", "inter-cluster")

	base, err := ce.Run(ce.BaselineConfig(), workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %-18s %8.2f %8s %12s\n", "1 (window)", "uniform 1 cycle", base.IPC(), "-", "-")

	for _, clusters := range []int{1, 2, 4} {
		for _, extra := range []int{1, 2, 3} {
			if clusters == 1 && extra > 1 {
				continue // no inter-cluster paths to slow down
			}
			clusters, extra := clusters, extra
			cfg := ce.BaselineConfig()
			cfg.Name = fmt.Sprintf("%dx%dway", clusters, 8/clusters)
			cfg.Clusters = clusters
			cfg.FUsPerCluster = 8 / clusters
			cfg.InterClusterDelay = extra - 1
			cfg.NewScheduler = func(b core.Bounds) core.Scheduler {
				return core.NewFIFOBank(core.FIFOBankConfig{
					Name:            cfg.Name,
					Clusters:        clusters,
					FIFOsPerCluster: 8 / clusters,
					Depth:           8, // 8 FIFOs of 8 entries in total
				}, b)
			}
			st, err := ce.Run(cfg, workload)
			if err != nil {
				log.Fatal(err)
			}
			label := fmt.Sprintf("local 1, remote %d", extra)
			if clusters == 1 {
				label = "uniform 1 cycle"
			}
			fmt.Printf("%-10d %-18s %8.2f %7.1f%% %11.1f%%\n",
				clusters, label, st.IPC(), (st.IPC()/base.IPC()-1)*100,
				st.InterClusterFrequency()*100)
		}
	}

	fmt.Println("\nDependence steering keeps chains local, so IPC degrades gracefully as")
	fmt.Println("inter-cluster latency grows — the paper's argument for clustering the")
	fmt.Println("dependence-based microarchitecture (Section 5.4).")
}

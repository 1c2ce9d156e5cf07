// Command papertables regenerates every measured table and figure of
// the Shredder paper (FAST 2012). Run it with no arguments to produce
// the full evaluation, or name specific experiments:
//
//	papertables [flags] [table1 fig3 fig5 fig6 table2 fig9 fig11 fig12 fig15 fig18]
//
// Flags:
//
//	-data N     stream size in MiB for the pipeline experiments (default 256)
//	-image N    VM image size in MiB for fig18 (default 64)
//	-text N     text input size in MiB for fig15 (default 12)
//	-seed N     workload seed (default 42)
//
// All timing comes from the calibrated device/host simulation, so the
// output is identical on any machine.
package main

import (
	"flag"
	"fmt"
	"os"

	"shredder/internal/experiments"
)

func main() {
	dataMB := flag.Int64("data", 256, "stream size in MiB for pipeline experiments")
	imageMB := flag.Int("image", 64, "VM image size in MiB for fig18")
	textMB := flag.Int("text", 12, "text input size in MiB for fig15")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()

	opt := experiments.Default()
	opt.DataBytes = *dataMB << 20
	opt.ImageBytes = *imageMB << 20
	opt.TextBytes = *textMB << 20
	opt.Seed = *seed

	names := flag.Args()
	if len(names) == 0 {
		names = []string{"table1", "fig3", "fig5", "fig6", "table2", "fig9", "fig11", "fig12", "fig15", "fig18"}
	}
	for _, name := range names {
		if err := run(name, opt); err != nil {
			fmt.Fprintf(os.Stderr, "papertables: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func run(name string, opt experiments.Options) error {
	switch name {
	case "table1":
		fmt.Println(experiments.Table1())
	case "fig3":
		fmt.Println(experiments.RenderFig3(experiments.Fig3()))
	case "fig5":
		rows, err := experiments.Fig5(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig5(rows, opt))
	case "fig6":
		fmt.Println(experiments.RenderFig6(experiments.Fig6()))
	case "table2":
		rows, err := experiments.Table2()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable2(rows))
	case "fig9":
		rows, err := experiments.Fig9(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig9(rows, opt))
	case "fig11":
		rows, err := experiments.Fig11(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig11(rows, opt))
	case "fig12":
		rows, err := experiments.Fig12(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig12(rows, opt))
	case "fig15":
		rows, err := experiments.Fig15(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig15(rows))
	case "fig18":
		rows, err := experiments.Fig18(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig18(rows))
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

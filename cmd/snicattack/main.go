// Command snicattack runs the polymorphic attack suite (§3.2/§3.3)
// against any registered device model — the commodity baselines where
// the attacks succeed, or the S-NIC where the hardware blocks them.
//
//	snicattack -device liquidio-ses   # one model, one verdict per attack
//	snicattack -device all            # every model plus the outcome matrix
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"snic/internal/attacks"
	"snic/internal/device"
	"snic/internal/exp"
)

func main() {
	model := flag.String("device", "all",
		"device model to attack ("+strings.Join(device.Models(), ", ")+") or \"all\"")
	flag.Parse()
	if err := run(*model); err != nil {
		fmt.Fprintln(os.Stderr, "snicattack:", err)
		os.Exit(1)
	}
}

func run(model string) error {
	fmt.Println("S-NIC attack reproduction suite (paper §3.2/§3.3)")
	fmt.Println("-------------------------------------------------")

	if model != "all" {
		return attackOne(model)
	}
	for _, m := range device.Models() {
		if err := attackOne(m); err != nil {
			return err
		}
		fmt.Println()
	}
	// The cross-model summary, rendered like the paper's tables.
	cols, err := (&exp.Runner{}).AttackMatrix()
	if err != nil {
		return err
	}
	fmt.Println(exp.RenderAttackMatrix(cols))
	return nil
}

// attackOne builds one device through the factory and runs the whole
// suite against it.
func attackOne(model string) error {
	dev, err := device.New(device.Spec{Model: model, Cores: 4, MemBytes: 16 << 20})
	if err != nil {
		return err
	}
	fmt.Printf("%s (caps: %s)\n", dev.Model(), dev.Caps())
	results, err := attacks.RunAll(dev)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Println(res)
	}
	return nil
}

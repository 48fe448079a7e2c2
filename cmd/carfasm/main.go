// Command carfasm assembles an R64 assembly file and optionally executes
// it — functionally on the golden-model VM, or on the full cycle-level
// pipeline with a chosen register file organization.
//
// Usage:
//
//	carfasm prog.s                        # assemble + run on the VM
//	carfasm -listing prog.s              # print the address listing
//	carfasm -pipeline -org content-aware prog.s
//	carfasm -dump x1,x28 prog.s          # print chosen registers at halt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"carf/internal/asm"
	"carf/internal/core"
	"carf/internal/isa"
	"carf/internal/pipeline"
	"carf/internal/regfile"
	"carf/internal/vm"
)

func main() {
	var (
		listing  = flag.Bool("listing", false, "print the assembled listing and exit")
		pipe     = flag.Bool("pipeline", false, "run on the cycle-level pipeline instead of the VM")
		orgName  = flag.String("org", "baseline", "pipeline register file: unlimited, baseline, content-aware")
		dump     = flag.String("dump", "x28", "comma-separated registers to print at halt")
		maxInsts = flag.Uint64("max-instructions", 50_000_000, "execution budget")
		traceN   = flag.Int("trace", 0, "with -pipeline: print a pipeview of the first N instructions")
		ops      = flag.Bool("ops", false, "print the R64 opcode reference and exit")
	)
	flag.Parse()
	if *ops {
		printOps()
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: carfasm [flags] <file.s>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(path, string(src))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("assembled %s: %d instructions, %d bytes of code at %#x\n",
		path, len(prog.Code), prog.CodeSize(), prog.Entry())
	if *listing {
		fmt.Print(asm.Listing(prog))
		return
	}

	var machine *vm.Machine
	if *pipe {
		var model regfile.Model
		switch *orgName {
		case "baseline":
			model = regfile.Baseline()
		case "unlimited":
			model = regfile.Unlimited()
		case "content-aware":
			model = core.New(core.DefaultParams())
		default:
			fatal(fmt.Errorf("unknown organization %q", *orgName))
		}
		cfg := pipeline.DefaultConfig()
		cfg.MaxInstructions = *maxInsts
		cpu := pipeline.New(cfg, prog, model)
		var obs pipeline.Observe
		var buf *pipeline.TraceBuffer
		if *traceN > 0 {
			buf = &pipeline.TraceBuffer{Cap: *traceN}
			obs.Trace = buf
		}
		st, err := cpu.RunContext(context.Background(), obs)
		if err != nil {
			fatal(err)
		}
		machine = cpu.Machine()
		fmt.Printf("pipeline(%s): %d instructions, %d cycles, IPC %.3f\n",
			model.Name(), st.Instructions, st.Cycles, st.IPC())
		if buf != nil {
			fmt.Print(buf.Format())
		}
	} else {
		machine = vm.New(prog)
		n, err := machine.Run(*maxInsts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("vm: %d instructions executed, halted=%v\n", n, machine.Halted)
	}

	for _, name := range strings.Split(*dump, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name == "" {
			continue
		}
		if strings.HasPrefix(name, "f") {
			if n, err := strconv.Atoi(name[1:]); err == nil && n >= 0 && n < 32 {
				fmt.Printf("%-4s = %#x\n", name, machine.F[n])
				continue
			}
		}
		if strings.HasPrefix(name, "x") {
			if n, err := strconv.Atoi(name[1:]); err == nil && n >= 0 && n < 32 {
				fmt.Printf("%-4s = %#x (%d)\n", name, machine.X[n], int64(machine.X[n]))
				continue
			}
		}
		fmt.Fprintf(os.Stderr, "carfasm: unknown register %q\n", name)
	}
}

// printOps emits the opcode reference straight from the ISA tables, so
// it can never drift from the implementation.
func printOps() {
	fmt.Println("R64 opcode reference (8-byte encodings; limm is 16 bytes)")
	fmt.Printf("%-10s %-10s %s\n", "mnemonic", "class", "operands")
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		fmt.Printf("%-10s %-10s %s\n", op.Name(), className(op.Class()), operandShape(op))
	}
	fmt.Println("\npseudo-instructions: li, la, mv, j, call, ret, jr, beqz, bnez")
	fmt.Println("register aliases: zero=x0, sp=x29, gp=x30, ra=x31")
	fmt.Println("directives: .org .text .data .word .byte .double .ascii .zero .reg")
}

func className(c isa.Class) string {
	switch c {
	case isa.ClassIntALU:
		return "int-alu"
	case isa.ClassIntMul:
		return "int-mul"
	case isa.ClassLoad:
		return "load"
	case isa.ClassStore:
		return "store"
	case isa.ClassBranch:
		return "branch"
	case isa.ClassJump:
		return "jump"
	case isa.ClassFPU:
		return "fp"
	case isa.ClassSys:
		return "system"
	default:
		return "nop"
	}
}

func operandShape(op isa.Op) string {
	reg := func(c isa.RegClass) string {
		switch c {
		case isa.RegInt:
			return "xN"
		case isa.RegFP:
			return "fN"
		}
		return ""
	}
	switch {
	case op == isa.NOP || op == isa.HALT:
		return "(none)"
	case op == isa.LIMM:
		return "xN, imm64"
	case op.IsLoad():
		return reg(op.RdClass()) + ", off(xN)"
	case op.IsStore():
		return reg(op.Rs2Class()) + ", off(xN)"
	case op.IsBranch():
		return "xN, xN, target"
	case op == isa.JAL:
		return "xN, target"
	case op == isa.JALR:
		return "xN, xN[, imm]"
	case op.HasImm():
		return reg(op.RdClass()) + ", " + reg(op.Rs1Class()) + ", imm"
	default:
		parts := []string{reg(op.RdClass())}
		if op.Rs1Class() != isa.RegNone {
			parts = append(parts, reg(op.Rs1Class()))
		}
		if op.Rs2Class() != isa.RegNone {
			parts = append(parts, reg(op.Rs2Class()))
		}
		return strings.Join(parts, ", ")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "carfasm:", err)
	os.Exit(1)
}

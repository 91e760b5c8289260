package experiments

import (
	"fmt"

	"repro/internal/losscurve"
)

// Fig5 reproduces Figure 5: Turing-NLG (17B, trained end-to-end with
// ZeRO-100B) validation perplexity over 300K iterations against the
// previous SOTA, the Megatron-LM 8.3B model.
func Fig5() Table {
	big := losscurve.Curve{Params: 17_000_000_000}
	small := losscurve.Curve{Params: 8_300_000_000}
	var rows [][]string
	for _, iter := range []int{1000, 10_000, 50_000, 100_000, 150_000, 200_000, 250_000, 300_000} {
		rows = append(rows, []string{
			fmt.Sprint(iter),
			fmtF(big.Perplexity(iter), 2),
			fmtF(small.Perplexity(iter), 2),
		})
	}
	return Table{
		Title: "Figure 5: Turing-NLG 17B vs Megatron-LM 8.3B validation perplexity",
		Note: "Scaling-law substitution (see package losscurve): the 17B curve dominates at every\n" +
			"iteration and ends near the record WebText-103 perplexity of 10.21.",
		Header: []string{"Iteration", "17B (ZeRO) ppl", "8.3B (Megatron) ppl"},
		Rows:   rows,
	}
}

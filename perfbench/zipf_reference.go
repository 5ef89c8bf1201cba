package main

// zipfReference is Figure 6 at the paper's scale and seed: Greedy's mean
// simulated response time over QA-NT's at each of experiments.Figure6Gaps,
// as experiments.Figure6(experiments.Paper()) returns it.
// TestZipfReferenceMatchesFigure6 recomputes it through the library.
var zipfReference = [7]float64{
	1.4353163406334082, 1.440440560672903, 1.430853768687263, 1.3747830313418639,
	1.1889062895238438, 1.2099838791915087, 1.1043996661449005,
}

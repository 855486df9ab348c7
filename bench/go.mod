module oasis/bench

go 1.22

require oasis v0.0.0

replace oasis => ../

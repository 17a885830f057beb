module flashqos/bench

go 1.22

require flashqos v0.0.0

replace flashqos => ../

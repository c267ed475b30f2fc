// mini | topology distributed | model c5c7b62cb259
// generated by regforge; do not edit

module mini_top (
    input  logic cfg_clk,
    input  logic cfg_rst_n,
    input  logic [3:0] cfg_addr,
    input  logic [31:0] cfg_wdata,
    input  logic cfg_write,
    input  logic core_busy,
    output logic core_ready,
    output logic [31:0] core_cfg_gain,
    output logic [7:0] core_cfg_shift
);

    logic core_sel;
    assign core_sel = (cfg_addr >= 4'd0) && (cfg_addr < 4'd2);

    mini_core u_core (
        .cfg_clk(cfg_clk),
        .cfg_rst_n(cfg_rst_n),
        .cfg_addr(cfg_addr),
        .cfg_wdata(cfg_wdata),
        .cfg_write(cfg_write),
        .cfg_sel(core_sel),
        .ready(core_ready),
        .busy(core_busy),
        .cfg_gain(core_cfg_gain),
        .cfg_shift(core_cfg_shift)
    );

endmodule

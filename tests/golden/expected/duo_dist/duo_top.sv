// duo | topology distributed | model 960ba6608b2e
// generated by regforge; do not edit

module duo_top (
    input  logic cfg_clk,
    input  logic dsp_clk,
    input  logic cfg_rst_n,
    input  logic [7:0] cfg_addr,
    input  logic [15:0] cfg_wdata,
    input  logic cfg_write,
    input  logic frontend_busy,
    output logic frontend_ready,
    output logic [15:0] frontend_cfg_decim,
    output logic [11:0] frontend_cfg_mix_i,
    output logic [11:0] frontend_cfg_mix_q,
    input  logic backend_busy,
    output logic backend_ready,
    output logic [3:0] backend_cfg_mode
);

    logic frontend_sel;
    assign frontend_sel = (cfg_addr >= 8'd0) && (cfg_addr < 8'd3);
    logic backend_sel;
    assign backend_sel = (cfg_addr >= 8'd128) && (cfg_addr < 8'd129);

    duo_frontend u_frontend (
        .cfg_clk(cfg_clk),
        .cfg_rst_n(cfg_rst_n),
        .cfg_addr(cfg_addr),
        .cfg_wdata(cfg_wdata),
        .cfg_write(cfg_write),
        .cfg_sel(frontend_sel),
        .ready(frontend_ready),
        .busy(frontend_busy),
        .cfg_decim(frontend_cfg_decim),
        .cfg_mix_i(frontend_cfg_mix_i),
        .cfg_mix_q(frontend_cfg_mix_q)
    );

    duo_backend u_backend (
        .cfg_clk(cfg_clk),
        .cfg_rst_n(cfg_rst_n),
        .cfg_addr(cfg_addr),
        .cfg_wdata(cfg_wdata),
        .cfg_write(cfg_write),
        .cfg_sel(backend_sel),
        .ready(backend_ready),
        .busy(backend_busy),
        .cfg_mode(backend_cfg_mode)
    );

endmodule

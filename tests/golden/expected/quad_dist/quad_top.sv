// quad | topology distributed | model d4c0eabd9dcf
// generated by regforge; do not edit

module quad_top (
    input  logic cfg_clk,
    input  logic fast_clk,
    input  logic cfg_rst_n,
    input  logic [9:0] cfg_addr,
    input  logic [31:0] cfg_wdata,
    input  logic cfg_write,
    input  logic lane0_busy,
    output logic lane0_ready,
    output logic [23:0] lane0_cfg_thresh,
    output logic [9:0] lane0_cfg_window,
    output logic [31:0] lane0_cfg_enable_mask,
    input  logic lane1_busy,
    output logic lane1_ready,
    output logic [23:0] lane1_cfg_thresh,
    output logic [9:0] lane1_cfg_window,
    output logic [31:0] lane1_cfg_enable_mask,
    input  logic lane2_busy,
    output logic lane2_ready,
    output logic [23:0] lane2_cfg_thresh,
    output logic [9:0] lane2_cfg_window,
    output logic [31:0] lane2_cfg_enable_mask,
    input  logic lane3_busy,
    output logic lane3_ready,
    output logic [23:0] lane3_cfg_thresh,
    output logic [9:0] lane3_cfg_window,
    output logic [31:0] lane3_cfg_enable_mask
);

    logic lane0_sel;
    assign lane0_sel = (cfg_addr >= 10'd0) && (cfg_addr < 10'd3);
    logic lane1_sel;
    assign lane1_sel = (cfg_addr >= 10'd64) && (cfg_addr < 10'd67);
    logic lane2_sel;
    assign lane2_sel = (cfg_addr >= 10'd128) && (cfg_addr < 10'd131);
    logic lane3_sel;
    assign lane3_sel = (cfg_addr >= 10'd192) && (cfg_addr < 10'd195);

    quad_lane0 u_lane0 (
        .cfg_clk(cfg_clk),
        .cfg_rst_n(cfg_rst_n),
        .cfg_addr(cfg_addr),
        .cfg_wdata(cfg_wdata),
        .cfg_write(cfg_write),
        .cfg_sel(lane0_sel),
        .ready(lane0_ready),
        .busy(lane0_busy),
        .cfg_thresh(lane0_cfg_thresh),
        .cfg_window(lane0_cfg_window),
        .cfg_enable_mask(lane0_cfg_enable_mask)
    );

    quad_lane1 u_lane1 (
        .cfg_clk(cfg_clk),
        .cfg_rst_n(cfg_rst_n),
        .cfg_addr(cfg_addr),
        .cfg_wdata(cfg_wdata),
        .cfg_write(cfg_write),
        .cfg_sel(lane1_sel),
        .ready(lane1_ready),
        .busy(lane1_busy),
        .cfg_thresh(lane1_cfg_thresh),
        .cfg_window(lane1_cfg_window),
        .cfg_enable_mask(lane1_cfg_enable_mask)
    );

    quad_lane2 u_lane2 (
        .cfg_clk(cfg_clk),
        .cfg_rst_n(cfg_rst_n),
        .cfg_addr(cfg_addr),
        .cfg_wdata(cfg_wdata),
        .cfg_write(cfg_write),
        .cfg_sel(lane2_sel),
        .ready(lane2_ready),
        .busy(lane2_busy),
        .cfg_thresh(lane2_cfg_thresh),
        .cfg_window(lane2_cfg_window),
        .cfg_enable_mask(lane2_cfg_enable_mask)
    );

    quad_lane3 u_lane3 (
        .cfg_clk(cfg_clk),
        .cfg_rst_n(cfg_rst_n),
        .cfg_addr(cfg_addr),
        .cfg_wdata(cfg_wdata),
        .cfg_write(cfg_write),
        .cfg_sel(lane3_sel),
        .ready(lane3_ready),
        .busy(lane3_busy),
        .cfg_thresh(lane3_cfg_thresh),
        .cfg_window(lane3_cfg_window),
        .cfg_enable_mask(lane3_cfg_enable_mask)
    );

endmodule

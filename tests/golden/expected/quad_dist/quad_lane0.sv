// quad | topology distributed | model d4c0eabd9dcf
// generated by regforge; do not edit

module quad_lane0 (
    input  logic cfg_clk,
    input  logic cfg_rst_n,
    input  logic [9:0] cfg_addr,
    input  logic [31:0] cfg_wdata,
    input  logic cfg_write,
    input  logic cfg_sel,
    output logic ready,
    input  logic busy,
    output logic [23:0] cfg_thresh,
    output logic [9:0] cfg_window,
    output logic [31:0] cfg_enable_mask
);

    logic [23:0] thresh_q;
    logic [9:0] window_q;
    logic [31:0] enable_mask_q;
    logic [1:0] busy_sync;

    always_ff @(posedge cfg_clk or negedge cfg_rst_n) begin
        if (!cfg_rst_n) begin
            thresh_q <= 24'd0;
            window_q <= 10'd0;
            enable_mask_q <= 32'd0;
            busy_sync <= '0;
            ready <= 1'b0;
        end else begin
            busy_sync <= {busy_sync[0:0], busy};
            ready <= ~busy_sync[1];
            if (cfg_write && cfg_sel && ready) begin
                case (cfg_addr)
                    10'd0: thresh_q <= cfg_wdata[23:0];
                    10'd1: window_q <= cfg_wdata[9:0];
                    10'd2: enable_mask_q <= cfg_wdata;
                    default: ;
                endcase
            end
        end
    end

    assign cfg_thresh = thresh_q;
    assign cfg_window = window_q;
    assign cfg_enable_mask = enable_mask_q;

endmodule

// mini | topology distributed | model c5c7b62cb259
// generated by regforge; do not edit

module mini_core (
    input  logic cfg_clk,
    input  logic cfg_rst_n,
    input  logic [3:0] cfg_addr,
    input  logic [31:0] cfg_wdata,
    input  logic cfg_write,
    input  logic cfg_sel,
    output logic ready,
    input  logic busy,
    output logic [31:0] cfg_gain,
    output logic [7:0] cfg_shift
);

    logic [31:0] gain_q;
    logic [7:0] shift_q;
    logic [1:0] busy_sync;

    always_ff @(posedge cfg_clk or negedge cfg_rst_n) begin
        if (!cfg_rst_n) begin
            gain_q <= 32'd1;
            shift_q <= 8'd0;
            busy_sync <= '0;
            ready <= 1'b0;
        end else begin
            busy_sync <= {busy_sync[0:0], busy};
            ready <= ~busy_sync[1];
            if (cfg_write && cfg_sel && ready) begin
                case (cfg_addr)
                    4'd0: gain_q <= cfg_wdata;
                    4'd1: shift_q <= cfg_wdata[7:0];
                    default: ;
                endcase
            end
        end
    end

    assign cfg_gain = gain_q;
    assign cfg_shift = shift_q;

endmodule

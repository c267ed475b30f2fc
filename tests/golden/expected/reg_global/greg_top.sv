// greg | topology global_registered | model f895ca0d97b5
// generated by regforge; do not edit

module greg_top (
    input  logic cfg_clk,
    input  logic cfg_rst_n,
    input  logic [7:0] cfg_addr,
    input  logic [31:0] cfg_wdata,
    input  logic cfg_write,
    output logic [17:0] alpha_cfg_coef0,
    output logic [17:0] alpha_cfg_coef1,
    output logic [17:0] alpha_cfg_coef2,
    output logic [17:0] alpha_cfg_coef3,
    output logic [8:0] beta_cfg_ctrl
);

    logic [31:0] mem [32];

    initial begin
        for (int i = 0; i < 32; i++) mem[i] = '0;
    end

    always_ff @(posedge cfg_clk) begin
        if (cfg_write) begin
            case (cfg_addr)
                8'd0: mem[0] <= cfg_wdata;
                8'd1: mem[1] <= cfg_wdata;
                8'd2: mem[2] <= cfg_wdata;
                8'd3: mem[3] <= cfg_wdata;
                8'd16: mem[4] <= cfg_wdata;
                default: ;
            endcase
        end
    end

    logic [31:0] mem_out [32];
    always_ff @(posedge cfg_clk) begin
        for (int i = 0; i < 32; i++) mem_out[i] <= mem[i];
    end

    logic [71:0] alpha_bundle;
    assign alpha_bundle = {mem_out[3][17:0], mem_out[2][17:0], mem_out[1][17:0], mem_out[0][17:0]};

    logic [8:0] beta_bundle;
    assign beta_bundle = {mem_out[4][8:0]};

    greg_alpha u_alpha (
        .clk(cfg_clk),
        .settings_in(alpha_bundle),
        .cfg_coef0(alpha_cfg_coef0),
        .cfg_coef1(alpha_cfg_coef1),
        .cfg_coef2(alpha_cfg_coef2),
        .cfg_coef3(alpha_cfg_coef3)
    );

    greg_beta u_beta (
        .clk(cfg_clk),
        .settings_in(beta_bundle),
        .cfg_ctrl(beta_cfg_ctrl)
    );

endmodule
